package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"twocs/internal/units"
)

// randomGrid builds a deterministic pseudo-random grid of n rows with
// clustered objective values (so dominance relations and marginal
// groups actually occur).
func randomGrid(rng *rand.Rand, n int) []Row {
	evos := []string{"base", "flop4x", "net4x"}
	hs := []int{1024, 4096, 16384}
	sls := []int{2048, 8192}
	bs := []int{1, 4}
	tps := []int{8, 64, 256}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Index:    int64(i),
			Evo:      evos[rng.Intn(len(evos))],
			FlopVsBW: float64(int(1) << rng.Intn(3)),
			H:        hs[rng.Intn(len(hs))],
			SL:       sls[rng.Intn(len(sls))],
			B:        bs[rng.Intn(len(bs))],
			TP:       tps[rng.Intn(len(tps))],
			// Coarse quantization produces exact-tie objective values,
			// exercising the "no worse on all, better on one" edge and the
			// index tie-break.
			IterTime: units.Seconds(float64(rng.Intn(8)+1) * 0.01),
			CommFrac: float64(rng.Intn(10)) * 0.1,
			MemBytes: units.Bytes(float64(rng.Intn(6)+1) * 1e9),
		}
	}
	return rows
}

// bruteFrontier is the all-pairs oracle: a row is on the frontier iff
// no other row dominates it. Dominance depends only on the objectives,
// so each row is checked against every distinct objective triple once,
// which keeps the oracle cheap on the tie-heavy grids below.
func bruteFrontier(rows []Row) []Row {
	seen := make(map[objectives]bool)
	var distinct []objectives
	for i := range rows {
		if o := objectivesOf(&rows[i]); !seen[o] {
			seen[o] = true
			distinct = append(distinct, o)
		}
	}
	var out []Row
	for i := range rows {
		dominated := false
		for _, o := range distinct {
			if o.dominatesRow(&rows[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, rows[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return betterRow(out[i], out[j]) })
	return out
}

// correlatedGrid builds n rows shaped like an evolution-grid sweep:
// tasks (model shape × TP) priced under a run of hardware scenarios,
// scenario-major, Index strictly increasing. A task's compute time
// shrinks with the scenario's flop-vs-bw ratio while its comm time does
// not, so iteration time and comm fraction trade off along each task
// and the frontier grows with the scenario count, as on real grids.
// With digits > 0 every objective is rounded to that many significant
// digits, which makes equal-objective ties frequent.
func correlatedGrid(rng *rand.Rand, n, tasks, digits int) []Row {
	type task struct {
		compute, comm, mem float64
		h, tp              int
	}
	ts := make([]task, tasks)
	for i := range ts {
		compute := 1e-3 * math.Pow(100, rng.Float64())
		ts[i] = task{
			compute: compute,
			comm:    compute * (0.05 + 2*rng.Float64()),
			mem:     1e8 * math.Pow(100, rng.Float64()),
			h:       1024 << rng.Intn(4),
			tp:      4 << rng.Intn(4),
		}
	}
	round := func(v float64) float64 {
		if digits <= 0 {
			return v
		}
		scale := math.Pow(10, float64(digits)-math.Ceil(math.Log10(v)))
		return math.Round(v*scale) / scale
	}
	scenarios := (n + tasks - 1) / tasks
	rows := make([]Row, n)
	for i := range rows {
		s, t := i/tasks, ts[i%tasks]
		ratio := 1 + 9*float64(s)/float64(max(scenarios-1, 1))
		iter := t.compute/ratio + t.comm
		rows[i] = Row{
			Index:    int64(i),
			Evo:      fmt.Sprintf("%.3gx", ratio),
			FlopVsBW: ratio,
			H:        t.h, SL: 2048, B: 1, TP: t.tp,
			IterTime: units.Seconds(round(iter)),
			CommFrac: round(t.comm / iter),
			MemBytes: units.Bytes(round(t.mem)),
		}
	}
	return rows
}

// tradeoffGrid builds n rows in random order on a quantized trade-off
// surface: IterTime and CommFrac levels i, j in [0, levels) with
// i+j < levels, and memory levels-i-j+slack. Rows with slack 0 never
// dominate each other, so the frontier is large, every objective triple
// recurs many times (dense equal-objective ties), and rows are beaten
// by many different members, so most of them reach a flush.
func tradeoffGrid(rng *rand.Rand, n, levels int) []Row {
	rows := make([]Row, n)
	for k := range rows {
		i := rng.Intn(levels)
		rows[k] = tradeoffRow(int64(k), levels, i, rng.Intn(levels-i), rng.Intn(4))
	}
	return rows
}

func tradeoffRow(index int64, levels, i, j, slack int) Row {
	return Row{
		Index: index, Evo: "base", FlopVsBW: 1, H: 4096, SL: 2048, B: 1, TP: 8,
		IterTime: units.Seconds(1e-3 * float64(i+1)),
		CommFrac: float64(j+1) / float64(levels+1),
		MemBytes: units.Bytes(1e9 * float64(levels-i-j+slack)),
	}
}

func rowKey(r Row) string {
	return fmt.Sprintf("%d/%s/%g/%d/%d/%d/%d/%g/%g/%g",
		r.Index, r.Evo, r.FlopVsBW, r.H, r.SL, r.B, r.TP,
		float64(r.IterTime), r.CommFrac, float64(r.MemBytes))
}

func diffRows(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if rowKey(got[i]) != rowKey(want[i]) {
			t.Fatalf("%s: row %d diverges:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

// TestParetoOracle checks the online frontier against the brute-force
// dominance oracle on seeded random grids. Duplicated objective vectors
// are deliberately frequent: the frontier must keep mutually
// non-dominating ties.
func TestParetoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		rows := randomGrid(rng, n)
		p := NewPareto()
		for _, r := range rows {
			if err := p.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
		diffRows(t, fmt.Sprintf("trial %d (n=%d)", trial, n), p.Frontier(), bruteFrontier(rows))
		if p.Size() != len(bruteFrontier(rows)) {
			t.Fatalf("trial %d: Size() = %d, oracle %d", trial, p.Size(), len(bruteFrontier(rows)))
		}
	}
}

// TestParetoFrontierInternalConsistency: no frontier member may
// dominate another.
func TestParetoFrontierInternalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPareto()
	for _, r := range randomGrid(rng, 500) {
		if err := p.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	f := p.Frontier()
	for i := range f {
		for j := range f {
			if i != j && objectivesOf(&f[i]).dominatesRow(&f[j]) {
				t.Fatalf("frontier member %d dominates member %d", i, j)
			}
		}
	}
}

// TestParetoOracleAcrossBatches: streams several batches long, whose
// frontier is built by flushes during Emit, match the brute-force
// oracle — also at lengths one short of, at, and one past a batch.
func TestParetoOracleAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct {
		name string
		rows []Row
	}{
		{"tradeoff", tradeoffGrid(rng, 3*paretoBatch+rng.Intn(paretoBatch), 20)},
		{"tradeoff-fine", tradeoffGrid(rng, 4*paretoBatch, 60)},
		{"correlated", correlatedGrid(rng, 6*paretoBatch, 48, 2)},
		{"random", randomGrid(rng, 3*paretoBatch+17)},
		{"batch-1", tradeoffGrid(rng, paretoBatch-1, 20)},
		{"batch", tradeoffGrid(rng, paretoBatch, 20)},
		{"batch+1", tradeoffGrid(rng, paretoBatch+1, 20)},
	}
	for _, c := range cases {
		p := NewPareto()
		emitAll(t, p, c.rows)
		if len(c.rows) > 2*paretoBatch && len(p.frontier) == 0 {
			t.Fatalf("%s: %d rows never flushed during Emit", c.name, len(c.rows))
		}
		want := bruteFrontier(c.rows)
		diffRows(t, c.name, p.Frontier(), want)
		if p.Size() != len(want) {
			t.Fatalf("%s: Size() = %d, oracle %d", c.name, p.Size(), len(want))
		}
	}
}

// TestParetoTiesStraddleFlush: copies of one frontier triple arrive
// throughout a multi-batch stream, so at the end some sit in the
// flushed frontier and some in the pending batch. The flush must keep
// every copy: rows with equal objectives never dominate each other.
func TestParetoTiesStraddleFlush(t *testing.T) {
	const levels, every = 20, 97
	rng := rand.New(rand.NewSource(47))
	rows := tradeoffGrid(rng, 3*paretoBatch, levels)
	for k := 0; k < len(rows); k += every {
		rows[k] = tradeoffRow(int64(k), levels, 4, 5, 0)
	}
	tie := objectivesOf(&rows[0])
	count := func(rs []Row) int {
		n := 0
		for i := range rs {
			if objectivesOf(&rs[i]) == tie {
				n++
			}
		}
		return n
	}
	p := NewPareto()
	emitAll(t, p, rows)
	if count(p.frontier) == 0 || count(p.batch) == 0 {
		t.Fatalf("ties do not straddle a flush: %d flushed, %d pending",
			count(p.frontier), count(p.batch))
	}
	got := p.Frontier()
	if n, want := count(got), count(rows); n != want {
		t.Fatalf("frontier keeps %d of %d tied rows", n, want)
	}
	diffRows(t, "ties", got, bruteFrontier(rows))
}

// TestParetoCanceledAcrossBatches: NaN rows interleaved into a stream
// several batches long are counted exactly and never reach the
// frontier, and Close leaves nothing pending.
func TestParetoCanceledAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rows := withCanceled(rng, tradeoffGrid(rng, 2*paretoBatch+500, 20), 300)
	p := NewPareto()
	emitAll(t, p, rows)
	if err := p.Close(Trailer{Rows: int64(len(rows)), Total: int64(len(rows)), Canceled: 300}); err != nil {
		t.Fatal(err)
	}
	if len(p.batch) != 0 {
		t.Fatalf("Close left %d rows unflushed", len(p.batch))
	}
	if p.Canceled() != 300 {
		t.Fatalf("Canceled() = %d, want 300", p.Canceled())
	}
	diffRows(t, "canceled", p.Frontier(), bruteFrontier(finiteOnly(rows)))
}

// TestParetoObserveMidStream: Size and Frontier called mid-stream —
// around and between batch boundaries — are exact for the prefix seen
// so far, and the stream keeps going afterwards.
func TestParetoObserveMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	rows := tradeoffGrid(rng, 3*paretoBatch+paretoBatch/2, 20)
	cuts := []int{1, paretoBatch - 1, paretoBatch, paretoBatch + 1,
		2*paretoBatch + rng.Intn(paretoBatch), len(rows)}
	p := NewPareto()
	at := 0
	for _, cut := range cuts {
		emitAll(t, p, rows[at:cut])
		at = cut
		want := bruteFrontier(rows[:cut])
		if p.Size() != len(want) {
			t.Fatalf("after %d rows: Size() = %d, oracle %d", cut, p.Size(), len(want))
		}
		diffRows(t, fmt.Sprintf("after %d rows", cut), p.Frontier(), want)
	}
}

// TestParetoEmitAllocFree pins the reducer's allocation contract: at a
// fixed frontier, a whole batch of Emits, flushes included, allocates
// nothing once the batch and its scratch exist.
func TestParetoEmitAllocFree(t *testing.T) {
	// Members k = 0..n-1 sit on the line IterTime = k, CommFrac = n-k.
	// Probe k is a hair worse than member k on both, so member k is its
	// only dominator: the single-member hint stops at most one probe per
	// round and the rest reach the flush, while the frontier stays put.
	const n = paretoBatch
	p := NewPareto()
	var index int64
	emit := func(k int, off float64) {
		index++
		r := Row{Index: index, Evo: "base", H: 4096, SL: 2048, B: 1, TP: 8,
			IterTime: units.Seconds(float64(k) + off),
			CommFrac: float64(n-k) + off,
			MemBytes: 1e9}
		if err := p.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		emit(k, 0)
	}
	round := func() {
		for k := 0; k < 2*paretoBatch; k++ {
			emit(k%n, 0.5)
		}
		p.Size()
	}
	round() // sizes the batch and the flush scratch
	if avg := testing.AllocsPerRun(5, round); avg > 0 {
		t.Errorf("Pareto: %.1f allocations per %d-row round, want 0", avg, 2*paretoBatch)
	}
	if p.Size() != n {
		t.Fatalf("frontier moved: %d members, want %d", p.Size(), n)
	}
}

// TestParetoRetainedMemoryBound checks the memory bound the Pareto doc
// states: the frontier (at most twice its peak size, from slice
// growth), one batch, and fixed batch-sized flush scratch, however long
// the stream.
func TestParetoRetainedMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := NewPareto()
	peak := 0
	for _, r := range tradeoffGrid(rng, 8*paretoBatch, 40) {
		if err := p.Emit(r); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, len(p.frontier))
	}
	peak = max(peak, p.Size())
	if cap(p.batch) != paretoBatch || len(p.perm) != paretoBatch ||
		cap(p.comm) != paretoBatch || len(p.tree) != paretoBatch+1 {
		t.Fatalf("batch scratch grew: batch %d perm %d comm %d tree %d, want %d",
			cap(p.batch), len(p.perm), cap(p.comm), len(p.tree), paretoBatch)
	}
	// 128 rows of slack covers the allocator's size-class rounding.
	if c := cap(p.frontier); c > 2*peak+128 {
		t.Fatalf("frontier capacity %d for a peak of %d rows", c, peak)
	}
}

// TestTopKOracle checks the bounded heap against sorting the full
// materialized grid.
func TestTopKOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300) + 1
		k := rng.Intn(20) + 1
		rows := randomGrid(rng, n)
		tk, err := NewTopK(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := tk.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
		oracle := append([]Row(nil), rows...)
		sort.Slice(oracle, func(i, j int) bool { return betterRow(oracle[i], oracle[j]) })
		if len(oracle) > k {
			oracle = oracle[:k]
		}
		diffRows(t, fmt.Sprintf("trial %d (n=%d k=%d)", trial, n, k), tk.Best(), oracle)
	}
}

func TestTopKRejectsBadK(t *testing.T) {
	if _, err := NewTopK(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewTopK(-3); err == nil {
		t.Fatal("k=-3 accepted")
	}
}

// TestMarginalsOracle checks the online accumulators against a
// materialized group-by over the same rows.
func TestMarginalsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows := randomGrid(rng, 400)
	m := NewMarginals()
	for _, r := range rows {
		if err := m.Emit(r); err != nil {
			t.Fatal(err)
		}
	}

	// Materialized oracle: group rows by each axis, compute the stats
	// from the full slices.
	groupBy := func(key func(Row) string) map[string][]Row {
		g := make(map[string][]Row)
		for _, r := range rows {
			k := key(r)
			g[k] = append(g[k], r)
		}
		return g
	}
	oracles := map[string]map[string][]Row{
		"evo": groupBy(func(r Row) string { return r.Evo }),
		"H":   groupBy(func(r Row) string { return fmt.Sprint(r.H) }),
		"SL":  groupBy(func(r Row) string { return fmt.Sprint(r.SL) }),
		"B":   groupBy(func(r Row) string { return fmt.Sprint(r.B) }),
		"TP":  groupBy(func(r Row) string { return fmt.Sprint(r.TP) }),
	}

	axes := m.Axes()
	if len(axes) != 5 {
		t.Fatalf("got %d axes, want 5", len(axes))
	}
	order := []string{"evo", "H", "SL", "B", "TP"}
	for i, ax := range axes {
		if ax.Axis != order[i] {
			t.Fatalf("axis %d = %q, want %q", i, ax.Axis, order[i])
		}
		oracle := oracles[ax.Axis]
		if len(ax.Values) != len(oracle) {
			t.Fatalf("axis %s: %d values, oracle has %d groups", ax.Axis, len(ax.Values), len(oracle))
		}
		if !sort.SliceIsSorted(ax.Values, func(i, j int) bool {
			// Int axes sort numerically; evo sorts lexically. Either way the
			// rendered order must be deterministic and monotonic.
			if ax.Axis == "evo" {
				return ax.Values[i].Value < ax.Values[j].Value
			}
			return atoiMust(t, ax.Values[i].Value) < atoiMust(t, ax.Values[j].Value)
		}) {
			t.Fatalf("axis %s values not sorted: %+v", ax.Axis, ax.Values)
		}
		for _, v := range ax.Values {
			group, ok := oracle[v.Value]
			if !ok {
				t.Fatalf("axis %s: unexpected value %q", ax.Axis, v.Value)
			}
			if v.Count != int64(len(group)) {
				t.Fatalf("axis %s value %s: count %d, oracle %d", ax.Axis, v.Value, v.Count, len(group))
			}
			var sumComm, sumIter float64
			minComm, maxComm := math.Inf(1), math.Inf(-1)
			for _, r := range group {
				sumComm += r.CommFrac
				sumIter += float64(r.IterTime)
				minComm = math.Min(minComm, r.CommFrac)
				maxComm = math.Max(maxComm, r.CommFrac)
			}
			wantMean := sumComm / float64(len(group))
			if math.Abs(v.MeanCommFrac-wantMean) > 1e-12 {
				t.Fatalf("axis %s value %s: mean comm %g, oracle %g", ax.Axis, v.Value, v.MeanCommFrac, wantMean)
			}
			if math.Abs(v.MinCommFrac-minComm) > 0 || math.Abs(v.MaxCommFrac-maxComm) > 0 {
				t.Fatalf("axis %s value %s: min/max %g/%g, oracle %g/%g",
					ax.Axis, v.Value, v.MinCommFrac, v.MaxCommFrac, minComm, maxComm)
			}
			wantIter := sumIter / float64(len(group))
			if math.Abs(float64(v.MeanIterTime)-wantIter) > 1e-12 {
				t.Fatalf("axis %s value %s: mean iter %g, oracle %g", ax.Axis, v.Value, float64(v.MeanIterTime), wantIter)
			}
		}
	}
}

func atoiMust(t *testing.T, s string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		t.Fatalf("non-numeric axis value %q", s)
	}
	return n
}

// TestMarginalsSpread: a synthetic grid where TP alone moves the comm
// fraction must rank TP's spread above an axis that does not move it.
func TestMarginalsSpread(t *testing.T) {
	m := NewMarginals()
	i := int64(0)
	for _, tp := range []int{8, 64} {
		for _, h := range []int{1024, 4096} {
			cf := 0.2
			if tp == 64 {
				cf = 0.8
			}
			err := m.Emit(Row{Index: i, Evo: "base", H: h, SL: 2048, B: 1, TP: tp,
				IterTime: 0.01, CommFrac: cf, MemBytes: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	var tpSpread, hSpread float64
	for _, ax := range m.Axes() {
		switch ax.Axis {
		case "TP":
			tpSpread = ax.Spread()
		case "H":
			hSpread = ax.Spread()
		}
	}
	if tpSpread < 0.59 || tpSpread > 0.61 {
		t.Fatalf("TP spread = %g, want 0.6", tpSpread)
	}
	if hSpread > 1e-12 {
		t.Fatalf("H spread = %g, want 0", hSpread)
	}
}

// TestReducersBoundedMemory: reducers attached to a long stream retain
// O(K + frontier + axis-values) rows, not O(n).
func TestReducersBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	tk, err := NewTopK(10)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPareto()
	m := NewMarginals()
	sink := Multi(p, tk, m)
	const n = 20000
	for _, r := range randomGrid(rng, n) {
		if err := sink.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(tk.heap) != 10 {
		t.Fatalf("top-k retained %d rows", len(tk.heap))
	}
	// The quantized objective space has at most 8*10*6 distinct vectors;
	// the frontier is far smaller than the stream.
	if p.Size() > 480 {
		t.Fatalf("frontier retained %d rows from a %d-row stream", p.Size(), n)
	}
}

func BenchmarkParetoEmit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := randomGrid(rng, 4096)
	p := NewPareto()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Emit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoEmitLargeFrontier is Emit at a realistic frontier
// size. BenchmarkParetoEmit cycles 4096 random rows whose frontier stays
// tiny; here a grid-shaped stream (strictly increasing Index,
// objectives correlated through task and scenario) first builds a
// frontier of thousands, then the timed rows replay the grid a hair
// worse on iteration time and comm fraction, so every one of them is
// dominated and the frontier holds still while they are checked.
func BenchmarkParetoEmitLargeFrontier(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	grid := correlatedGrid(rng, 1<<17, 156, 0)
	p := NewPareto()
	for _, r := range grid {
		if err := p.Emit(r); err != nil {
			b.Fatal(err)
		}
	}
	if n := p.Size(); n < 2000 {
		b.Fatalf("frontier has %d rows, want thousands", n)
	}
	probes := make([]Row, len(grid))
	for i, r := range grid {
		r.IterTime *= 1.001
		r.CommFrac *= 1.001
		probes[i] = r
	}
	index := int64(len(grid))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := probes[i%len(probes)]
		r.Index = index
		index++
		if err := p.Emit(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKEmit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rows := randomGrid(rng, 4096)
	tk, err := NewTopK(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tk.Emit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}
