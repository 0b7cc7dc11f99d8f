package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twocs/internal/core"
	"twocs/internal/serve"
)

// This file is the study-mix workload: an open-loop POST /v1/study load
// at a fixed rate over two keep-alive connections to one in-process
// serve.Server. The mix is drawn from the seed alone: about 80% of
// requests pick, with Zipf skew, one of a hot set of specs that fits the
// server's result cache; the rest are fresh specs, each sent once.

const (
	hotSpecs   = 24
	hotShare   = 0.8
	conns      = 2
	minRatios  = 4
	maxRatios  = 64
	verifyMiss = 16 // fresh specs re-rendered locally after the window
)

// studySpec is one generated request body and what it should return.
type studySpec struct {
	body   []byte
	rows   int64 // grid points the response carries
	verify bool  // re-render locally after the window
}

// studyMix is the seeded request sequence: specs[seq[i]] is request i.
type studyMix struct {
	specs []studySpec
	seq   []int
}

// newStudyMix draws n requests from seed.
func newStudyMix(seed int64, n int) (*studyMix, error) {
	rng := rand.New(rand.NewSource(seed))
	m := &studyMix{}
	seen := map[string]bool{}
	add := func(req serve.StudyRequest, verify bool) (int, bool, error) {
		key := fmt.Sprint(sorted(req.Hs), sorted(req.SLs), sorted(req.TPs), req.FlopVsBW)
		rows, err := core.GridRowCount(req.Hs, req.SLs, req.TPs, 1, len(req.FlopVsBW))
		if seen[key] || err != nil {
			// A repeat, or every TP of the subset leaves some H indivisible.
			return 0, false, nil
		}
		seen[key] = true
		body, err := json.Marshal(req)
		if err != nil {
			return 0, false, err
		}
		m.specs = append(m.specs, studySpec{body: body, rows: rows, verify: verify})
		return len(m.specs) - 1, true, nil
	}
	for k := 0; k < hotSpecs; {
		_, ok, err := add(hotStudy(rng, k), true)
		if err != nil {
			return nil, err
		}
		if ok {
			k++
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, hotSpecs-1)
	fresh := 0
	for len(m.seq) < n {
		if rng.Float64() < hotShare {
			m.seq = append(m.seq, int(zipf.Uint64()))
			continue
		}
		idx, ok, err := add(randomStudy(rng), fresh < verifyMiss)
		if err != nil {
			return nil, err
		}
		if ok {
			fresh++
			m.seq = append(m.seq, idx)
		}
	}
	return m, nil
}

// hotStudy draws hot spec k: 3 of the Table-3 H values, 2 of the SL
// values and 2 of the TP degrees that divide every H, plus a fixed
// number of seeded ratios in [1, 10]. Every hot spec thus has a size
// fixed by k, so the hot set, which dominates the mix's mean cost, costs
// the same under every seed; the seed picks the values and their order.
func hotStudy(rng *rand.Rand, k int) serve.StudyRequest {
	n := minRatios + (maxRatios-minRatios)*(k*7%hotSpecs)/(hotSpecs-1)
	set := map[int]bool{}
	for len(set) < n {
		set[100+rng.Intn(901)] = true
	}
	var rs []float64
	for v := range set {
		rs = append(rs, float64(v)/100)
	}
	slices.Sort(rs)
	pick := func(axis []int, m int) []int { return shuffled(rng, axis)[:m] }
	return serve.StudyRequest{GridSpec: serve.GridSpec{
		Hs: pick(core.Table3Hs(), 3), SLs: pick(core.Table3SLs(), 2), TPs: pick([]int{4, 8, 16}, 2),
		FlopVsBW: rs,
	}}
}

// randomStudy draws a fresh spec: 4–64 flop-vs-bw ratios spaced evenly
// over [1, 10] and a random non-empty subset of each Table-3 axis, in
// shuffled order (the server normalizes).
func randomStudy(rng *rand.Rand) serve.StudyRequest {
	subset := func(axis []int) []int {
		var out []int
		for _, v := range axis {
			if rng.Intn(2) == 0 {
				out = append(out, v)
			}
		}
		if len(out) == 0 {
			out = append(out, axis[rng.Intn(len(axis))])
		}
		return shuffled(rng, out)
	}
	hs, sls, tps := subset(core.Table3Hs()), subset(core.Table3SLs()), subset(core.Table3TPs())
	n := minRatios + rng.Intn(maxRatios-minRatios+1)
	return serve.StudyRequest{GridSpec: serve.GridSpec{Hs: hs, SLs: sls, TPs: tps, FlopVsBW: ratios(n)}}
}

func shuffled(rng *rand.Rand, v []int) []int {
	out := slices.Clone(v)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func sorted(v []int) []int {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// studyEnv is a set-up study-mix workload.
type studyEnv struct {
	o      *options
	mix    *studyMix
	an     *core.Analyzer
	rep    *replica
	client *http.Client
	tr     *tracer
	th     *tracedHandler

	mu     sync.Mutex
	bodies map[int]bodySeen // first body seen per spec

	sums studySums
}

type bodySeen struct {
	n    int
	crc  uint32
	keep []byte // kept for specs re-rendered after the window
}

// studySums holds what the per-layer metrics need.
type studySums struct {
	hits, misses int64
	rejected     int64
	late         []time.Duration
	grid         []time.Duration // local grid + crossover time per verified spec
}

func newStudyEnv(ctx context.Context, o *options, mix *studyMix, tr *tracer) (*studyEnv, error) {
	e := &studyEnv{o: o, mix: mix, tr: tr, bodies: map[int]bodySeen{}}
	var err error
	if e.an, err = newAnalyzer(); err != nil {
		return nil, err
	}
	cfg := serve.DefaultConfig()
	// Admission must not shape the offered load.
	cfg.Rate, cfg.Burst = 1e9, 1<<30
	var h http.Handler = serve.New(e.an, cfg, nil, nil).Handler()
	if tr != nil {
		e.th = &tracedHandler{h: h, tr: tr, lane: "server", results: map[int64]handled{}}
		h = e.th
	}
	e.client = newClient(conns, nil)
	if e.rep, err = startReplica(ctx, h, e.client); err != nil {
		return nil, err
	}
	// Fill the projection cache with every grid shape, as a long-running
	// daemon has.
	if _, err = e.an.SerializedEvolutionGridCtx(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1,
		evolutions([]float64{1})); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *studyEnv) close() {
	e.rep.close()
	e.client.CloseIdleConnections()
}

func (e *studyEnv) warm(context.Context) ([]opStat, error) { return nil, nil }

// measure sends the mix open-loop: request i is due at start + i/rate,
// whether or not earlier requests have finished, and its latency runs
// from that due time. A traced run traces every other request.
func (e *studyEnv) measure(ctx context.Context) ([]opStat, error) {
	n := len(e.mix.seq)
	ops := make([]opStat, n)
	late := make([]time.Duration, n)
	interval := time.Duration(float64(time.Second) / e.o.rate)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[i] = time.Since(due)
				ops[i] = e.request(ctx, e.mix.seq[i], due, e.tr != nil && i%2 == 1, "client "+strconv.Itoa(g), &buf)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.sums.late = late
	return ops, nil
}

// request sends one study and checks its answer: status 200, and a body
// byte-identical to the first body seen for the spec.
func (e *studyEnv) request(ctx context.Context, idx int, due time.Time, traced bool, lane string, buf *bytes.Buffer) opStat {
	spec := &e.mix.specs[idx]
	op := opStat{traced: traced}
	fail := func(err error) opStat {
		op.lat, op.failed, op.err = time.Since(due), true, err
		if op.first == 0 {
			op.first = op.lat
		}
		return op
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.rep.url+"/v1/study", bytes.NewReader(spec.body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	var s span
	if traced {
		s = e.tr.start("loadgen.study", lane, 0, 0)
		req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return fail(err)
	}
	op.first = time.Since(due)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if traced {
		e.tr.finish(s)
	}
	got := bodySeen{n: buf.Len(), crc: crc32.Checksum(buf.Bytes(), castagnoli)}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch resp.Header.Get("X-Twocsd-Cache") {
	case "hit":
		e.sums.hits++
	case "miss":
		e.sums.misses++
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		e.sums.rejected++
	}
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("study: %s", resp.Status))
	}
	if first, ok := e.bodies[idx]; ok {
		if first.n != got.n || first.crc != got.crc {
			return fail(fmt.Errorf("study %d: body %d bytes %08x, first was %d bytes %08x", idx, got.n, got.crc, first.n, first.crc))
		}
	} else {
		if spec.verify {
			got.keep = bytes.Clone(buf.Bytes())
		}
		e.bodies[idx] = got
	}
	op.lat = time.Since(due)
	op.rows = spec.rows
	return op
}

// verify re-renders every kept body from a local grid: the served
// points and crossover tables must equal SerializedEvolutionGridCtx plus
// CrossoverTable on the spec the server echoed, byte for byte, and the
// echoed axes must be the request's axes normalized.
func (e *studyEnv) verify(ctx context.Context) (int, error) {
	failed := 0
	var first error
	for idx, seen := range e.bodies {
		if seen.keep == nil {
			continue
		}
		t0 := time.Now()
		err := e.render(ctx, e.mix.specs[idx].body, seen.keep)
		e.sums.grid = append(e.sums.grid, time.Since(t0))
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("study %d: %w", idx, err)
			}
		}
	}
	return failed, first
}

func (e *studyEnv) render(ctx context.Context, reqBody, served []byte) error {
	var req serve.StudyRequest
	var got serve.StudyResponse
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(served, &got); err != nil {
		return err
	}
	sp := got.Spec
	if !slices.Equal(sp.Hs, sorted(req.Hs)) || !slices.Equal(sp.SLs, sorted(req.SLs)) ||
		!slices.Equal(sp.TPs, sorted(req.TPs)) || !slices.Equal(sp.FlopVsBW, req.FlopVsBW) {
		return fmt.Errorf("server echoed spec %+v for request %+v", sp.GridSpec, req.GridSpec)
	}
	evos := sp.Evolutions()
	grid, err := e.an.SerializedEvolutionGridCtx(ctx, sp.Hs, sp.SLs, sp.TPs, sp.B, evos)
	if err != nil {
		return err
	}
	want := serve.StudyResponse{Spec: sp, Scenarios: make([]serve.StudyScenario, len(grid))}
	for i, points := range grid {
		sc := serve.StudyScenario{Evo: evos[i].Name, FlopVsBW: evos[i].FlopVsBW(), Points: make([]serve.StudyPoint, len(points))}
		for j, p := range points {
			sc.Points[j] = serve.StudyPoint{H: p.H, SL: p.SL, B: p.B, TP: p.TP, Fraction: p.Fraction}
		}
		if sc.Crossover, err = core.CrossoverTable(points, sp.TargetFraction); err != nil {
			return err
		}
		want.Points += len(points)
		want.Scenarios[i] = sc
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(append(b, '\n'), served) {
		return fmt.Errorf("served body differs from the local grid (%d vs %d bytes)", len(served), len(b)+1)
	}
	return nil
}

// layers turns the study counts, the handler spans and the verification
// timings into per-layer metrics.
func (e *studyEnv) layers([]span) map[string]float64 {
	l := &e.sums
	var hit, miss []time.Duration
	for _, h := range e.th.results {
		switch h.cache {
		case "hit":
			hit = append(hit, h.dur)
		case "miss":
			miss = append(miss, h.dur)
		}
	}
	return map[string]float64{
		"serve.study.hit_ratio":   float64(l.hits) / float64(max(l.hits+l.misses, 1)),
		"serve.study.hit.p50_ms":  ms(pct(hit, 50)),
		"serve.study.miss.p50_ms": ms(pct(miss, 50)),
		"serve.rejected":          float64(l.rejected),
		"loadgen.late.p99_ms":     ms(pct(l.late, 99)),
		"core.study_grid.p50_ms":  ms(pct(l.grid, 50)),
	}
}
