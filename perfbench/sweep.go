package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/serve"
	"twocs/internal/shardmap"
	"twocs/internal/stream"
)

// This file holds the three sweep workloads: stream-plain and
// stream-digests call Analyzer.StreamEvolutionGridCtx in-process;
// fan-out calls shardmap.Coordinator.Sweep over two in-process
// serve.Server replicas on loopback listeners. Each operation is one
// whole grid sweep into an NDJSON writer over os.DevNull through a
// CRC-32C tee.

func newAnalyzer() (*core.Analyzer, error) {
	e, err := model.LookupZoo("BERT")
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
}

// replica is one in-process twocsd: a serve.Server behind its own
// loopback listener.
type replica struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

// startReplica serves h on a fresh loopback port and waits until the
// server answers.
func startReplica(ctx context.Context, h http.Handler, client *http.Client) (*replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replica{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("replica %s: %s", r.url, resp.Status)
			}
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the server and waits for its serve loop to end.
func (r *replica) close() {
	_ = r.srv.Close() // Close only reports listener errors; nothing is left to serve
	<-r.done
}

// newClient returns an HTTP client holding at most perHost connections
// to each server, its transport wrapped by rt when rt is not nil.
func newClient(perHost int, rt func(http.RoundTripper) http.RoundTripper) *http.Client {
	var t http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     perHost,
		MaxIdleConnsPerHost: perHost,
		DisableCompression:  true,
	}
	if rt != nil {
		t = rt(t)
	}
	return &http.Client{Transport: t}
}

// sweepEnv is a set-up sweep workload.
type sweepEnv struct {
	o      *options
	an     *core.Analyzer
	ratios []float64
	rows   int64
	want   golden
	null   *os.File
	tr     *tracer

	// fan-out only
	replicas  []*replica
	client    *http.Client
	transport *tracedTransport
	curOp     atomic.Int64 // span of the traced sweep in flight, 0 if none
	fails     atomic.Int64 // remaining injected 503s on replica 0

	sums sweepSums
}

// sweepSums holds what the traced operations observed.
type sweepSums struct {
	rows             int64
	wall, sinkBusy   time.Duration
	busy             map[string]time.Duration // per sink child
	bytes            int64
	frontier         int
	retries, retired int64  // over every sweep, traced or not
	kept             []byte // artifact prefix, for the decode probe
}

func newSweepEnv(ctx context.Context, o *options, want golden, tr *tracer) (*sweepEnv, error) {
	e := &sweepEnv{o: o, ratios: ratios(o.scenarios), want: want, tr: tr}
	e.sums.busy = map[string]time.Duration{}
	var err error
	if e.rows, err = gridRows(o.scenarios); err != nil {
		return nil, err
	}
	if e.null, err = os.OpenFile(os.DevNull, os.O_WRONLY, 0); err != nil {
		return nil, err
	}
	if o.workload != "fan-out" {
		if e.an, err = newAnalyzer(); err == nil {
			// Fill the analyzer's projection cache with every grid shape.
			err = e.an.StreamEvolutionGridCtx(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1,
				evolutions([]float64{1}), &stream.Discard{})
		}
		if err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}

	e.client = newClient(1, func(base http.RoundTripper) http.RoundTripper {
		if tr == nil {
			return base
		}
		e.transport = &tracedTransport{base: base, tr: tr, parent: e.curOp.Load, status: map[int]int{}}
		return e.transport
	})
	for i := 0; i < 2; i++ {
		if err := e.addReplica(ctx, i); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// addReplica starts replica i on its own analyzer and warms it with a
// one-scenario sweep, which fills its projection cache.
func (e *sweepEnv) addReplica(ctx context.Context, i int) error {
	an, err := newAnalyzer()
	if err != nil {
		return err
	}
	var h http.Handler = serve.New(an, serve.DefaultConfig(), nil, nil).Handler()
	if i == 0 && e.o.fail503 > 0 {
		h = failFirst(h, &e.fails)
	}
	if e.tr != nil {
		h = &tracedHandler{h: h, tr: e.tr, lane: "replica " + strconv.Itoa(i), results: map[int64]handled{}}
	}
	r, err := startReplica(ctx, h, e.client)
	if err != nil {
		return err
	}
	e.replicas = append(e.replicas, r)
	coord, err := shardmap.NewCoordinator(shardmap.Config{Replicas: []string{r.url}, TopK: 1, Client: e.client})
	if err != nil {
		return err
	}
	_, err = coord.Sweep(ctx, serve.SweepRequest{GridSpec: serve.GridSpec{B: 1, FlopVsBW: []float64{1}}}, &stream.Discard{})
	return err
}

// failFirst answers sweep requests with 503 and Retry-After 0, as an
// overloaded replica would, while *n stays positive.
func failFirst(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" && n.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "injected overload", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func (e *sweepEnv) close() {
	for _, r := range e.replicas {
		r.close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.null != nil {
		e.null.Close()
	}
}

// firstRowProbes is how many canceled sweeps time the local stream's
// first row: a few milliseconds each, too short to time once a sweep.
const firstRowProbes = 31

// warm runs one untimed sweep, then for the local streams the first-row
// probes: sweeps canceled at their first row.
func (e *sweepEnv) warm(ctx context.Context) ([]opStat, error) {
	op, err := e.op(ctx, false)
	if err != nil {
		return nil, err
	}
	op.warm = true
	ops := []opStat{op}
	for i := 0; e.an != nil && i < firstRowProbes; i++ {
		pctx, cancel := context.WithCancel(ctx)
		c := newCapture()
		err := e.an.StreamEvolutionGridCtx(pctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1,
			evolutions(e.ratios), stream.Multi(c, cancelSink(cancel)))
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
		probe := opStat{probe: true, first: c.first.Sub(c.start)}
		if c.rows == 0 {
			probe.first = time.Since(c.start)
		}
		ops = append(ops, probe)
	}
	return ops, nil
}

// cancelSink cancels the stream at its first row.
type cancelSink context.CancelFunc

func (c cancelSink) Emit(stream.Row) error      { c(); return nil }
func (c cancelSink) Close(stream.Trailer) error { return nil }

// measure runs sweeps back to back until the next one would overrun the
// window. A traced run alternates untraced and traced sweeps.
func (e *sweepEnv) measure(ctx context.Context) ([]opStat, error) {
	e.fails.Store(int64(e.o.fail503))
	var ops []opStat
	start := time.Now()
	minOps := 1
	if e.tr != nil {
		minOps = 2
	}
	for len(ops) < minOps || time.Since(start)+ops[len(ops)-1].lat <= e.o.seconds {
		traced := e.tr != nil && len(ops)%2 == 1
		op, err := e.op(ctx, traced)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// op runs one sweep and gates its output. The returned error is for a
// broken benchmark; a wrong sweep is a failed opStat.
func (e *sweepEnv) op(ctx context.Context, traced bool) (opStat, error) {
	tee := &crcTee{w: e.null, flipAt: e.o.flipAt}
	if traced && e.o.workload == "fan-out" && e.sums.kept == nil {
		tee.keep = 4 << 20
	}
	c := &capture{}
	children := []stream.Sink{stream.NewNDJSON(tee)}
	names := []string{"stream.ndjson.emit"}
	var ds *digestSet
	if e.o.workload == "stream-digests" {
		ds = newDigestSet()
		children = append(children, ds.topk, ds.pareto, ds.marginals)
		names = append(names, "stream.topk.emit", "stream.pareto.emit", "stream.marginals.emit")
	}
	var timed []*timedSink
	if traced {
		for i, s := range children {
			t := &timedSink{inner: s}
			timed = append(timed, t)
			children[i] = t
		}
	}
	var sink stream.Sink = stream.Multi(append(children, c)...)
	outer := &timedSink{inner: sink}
	if traced {
		sink = outer
	}

	var root span
	var res *shardmap.Result
	var err error
	if e.o.workload == "fan-out" {
		if traced {
			root = e.tr.start("shardmap.sweep", "coordinator", 0, 0)
			sink = &shardSink{inner: outer, nd: timed[0], tr: e.tr, parent: root.ID, shardRows: shardmap.DefaultShardRows}
			e.curOp.Store(root.ID)
		}
		var coord *shardmap.Coordinator
		coord, err = shardmap.NewCoordinator(shardmap.Config{
			Replicas: []string{e.replicas[0].url, e.replicas[1].url}, TopK: 1, Client: e.client,
		})
		if err != nil {
			return opStat{}, err
		}
		c.begin()
		res, err = coord.Sweep(ctx, serve.SweepRequest{GridSpec: serve.GridSpec{B: 1, FlopVsBW: e.ratios}}, sink)
	} else {
		if traced {
			root = e.tr.start("core.stream", "main", 0, 0)
		}
		c.begin()
		err = e.an.StreamEvolutionGridCtx(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1,
			evolutions(e.ratios), sink)
	}
	lat := time.Since(c.start)
	op := opStat{lat: lat, first: c.first.Sub(c.start), rows: c.rows, traced: traced}
	if c.rows == 0 {
		op.first = lat
	}
	if err == nil && res != nil && (!res.Complete || res.Rows != e.rows || res.Total != e.rows) {
		err = fmt.Errorf("fan-out result %d/%d rows, complete=%v", res.Rows, res.Total, res.Complete)
	}
	if err == nil {
		err = checkSweep(e.want, e.rows, c, tee, ds)
	}
	if err != nil {
		op.failed = true
		op.err = err
	}
	if res != nil {
		e.sums.retries += res.Retries
		e.sums.retired += int64(res.Retired)
	}
	if !traced {
		return op, nil
	}

	e.curOp.Store(0)
	if e.o.workload != "fan-out" {
		root.Rows = map[string]time.Duration{}
		for i, t := range timed {
			root.Rows[names[i]] = t.busy
		}
	}
	e.tr.finish(root)
	l := &e.sums
	l.rows += c.rows
	l.wall += lat
	l.sinkBusy += outer.busy
	l.bytes += tee.n
	for i, t := range timed {
		l.busy[names[i]] += t.busy
	}
	if ds != nil {
		l.frontier = ds.pareto.Size()
	}
	if tee.keep > 0 {
		l.kept = tee.kept
	}
	return op, nil
}

func (e *sweepEnv) verify(context.Context) (int, error) { return 0, nil }

// layers turns the traced sweeps' sums and spans into per-layer
// metrics.
func (e *sweepEnv) layers(spans []span) map[string]float64 {
	l := &e.sums
	rows := float64(max(l.rows, 1))
	v := map[string]float64{
		"stream.ndjson.bytes_per_row": float64(l.bytes) / rows,
		"stream.pareto.frontier_rows": float64(l.frontier),
		"shardmap.retries":            float64(l.retries),
		"shardmap.retired":            float64(l.retired),
	}
	for name, d := range l.busy {
		v[name+".ns_per_row"] = float64(d) / rows
	}
	wait := 1 - float64(l.sinkBusy)/float64(max(l.wall, 1))
	if e.o.workload != "fan-out" {
		v["core.stream.sink_wait_share"] = wait
		return v
	}
	v["shardmap.sink_wait_share"] = wait
	var handler, emit time.Duration
	var plans []time.Duration
	for _, s := range spans {
		switch s.Layer {
		case "serve.sweep":
			handler += s.dur()
		case "shardmap.emit":
			emit += s.dur()
		case "http.client.plan":
			plans = append(plans, s.dur())
		}
	}
	v["serve.sweep.busy_share"] = float64(handler) / float64(max(l.wall, 1)) / float64(len(e.replicas))
	v["serve.sweep.ns_per_row"] = float64(handler) / rows
	v["shardmap.emit.ns_per_row"] = float64(emit) / rows
	v["shardmap.plan_ms"] = ms(pct(plans, 50))
	if e.transport != nil {
		v["serve.rejected"] = float64(e.transport.status[http.StatusTooManyRequests] + e.transport.status[http.StatusServiceUnavailable])
	}
	v["stream.decode.ns_per_row"] = decodeProbe(l.kept)
	return v
}

// decodeProbe times stream.ParseNDJSONLine over the complete lines of a
// fan-out artifact prefix — the lines the coordinator decoded from the
// replicas' bodies — and returns ns per line, the median of three
// passes.
func decodeProbe(b []byte) float64 {
	lines := bytes.Split(b, []byte("\n"))
	lines = lines[:len(lines)-1] // the last is partial or empty
	if len(lines) == 0 {
		return 0
	}
	passes := make([]time.Duration, 3)
	for i := range passes {
		t0 := time.Now()
		for _, ln := range lines {
			if _, err := stream.ParseNDJSONLine(ln); err != nil {
				return 0
			}
		}
		passes[i] = time.Since(t0)
	}
	return float64(pct(passes, 50)) / float64(len(lines))
}
