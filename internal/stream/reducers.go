package stream

import (
	"fmt"
	"sort"

	"twocs/internal/units"
)

// This file and pareto.go hold the online reducers: sinks that
// aggregate a grid stream into a bounded digest instead of writing it
// anywhere. All of them are deterministic given the Sink ordering
// contract (rows arrive in index order), so their digests are
// byte-stable at any worker count. Attach them alongside a file writer
// with Multi.
//
// Canceled rows — back-filled grid points with NaN objectives — are
// skipped by every reducer and counted via Canceled(). NaN compares
// false against everything, so letting such a row through would append
// it to the Pareto frontier undetected (nothing dominates it), let it
// displace a real row in TopK (betterRow falls through to the Index
// tie-break), and poison the Marginals means; skipping makes the
// truncation visible in the digest instead of silently wrong.

// betterRow is the deterministic ranking the reducers share: smaller
// IterTime first, grid index as the tie-break.
func betterRow(a, b Row) bool {
	if a.IterTime < b.IterTime {
		return true
	}
	if a.IterTime > b.IterTime {
		return false
	}
	return a.Index < b.Index
}

// ---------------------------------------------------------------------
// Top-K heap

// TopK keeps the K best rows by iteration time (ties broken by grid
// index) in a bounded max-heap: O(K) memory and O(log K) per emitted
// row no matter how large the grid is.
type TopK struct {
	k int
	// heap is a max-heap under betterRow: the *worst* retained row sits
	// at heap[0], so one comparison decides whether a new row displaces
	// anything.
	heap     []Row
	canceled int64
}

// NewTopK returns a reducer keeping the k best rows; k must be >= 1.
func NewTopK(k int) (*TopK, error) {
	if k < 1 {
		return nil, fmt.Errorf("stream: top-k needs k >= 1, got %d", k)
	}
	return &TopK{k: k, heap: make([]Row, 0, k)}, nil
}

// Emit implements Sink.
//
//lint:hotpath
func (t *TopK) Emit(r Row) error {
	if !r.Finite() {
		// betterRow is false both ways on NaN, so the ranking would fall
		// through to the Index tie-break and a canceled row could evict
		// a real one. Count it instead.
		t.canceled++
		return nil
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, r)
		t.siftUp(len(t.heap) - 1)
		return nil
	}
	if betterRow(r, t.heap[0]) {
		t.heap[0] = r
		t.siftDown(0)
	}
	return nil
}

// Close implements Sink.
func (t *TopK) Close(Trailer) error { return nil }

// Canceled returns the number of canceled (non-finite) rows skipped.
func (t *TopK) Canceled() int64 { return t.canceled }

// Best returns the retained rows, best first. The slice is a copy.
func (t *TopK) Best() []Row {
	out := make([]Row, len(t.heap))
	copy(out, t.heap)
	sort.Slice(out, func(i, j int) bool { return betterRow(out[i], out[j]) })
	return out
}

// worse orders the heap: parent is worse than (ranked after) children.
func (t *TopK) worse(i, j int) bool { return betterRow(t.heap[j], t.heap[i]) }

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// ---------------------------------------------------------------------
// Per-axis marginals

// marginalAcc accumulates the statistics of one axis value.
type marginalAcc struct {
	count            int64
	sumComm          float64
	minComm, maxComm float64
	sumIter          float64
}

func (a *marginalAcc) add(r Row) {
	if a.count == 0 {
		a.minComm, a.maxComm = r.CommFrac, r.CommFrac
	} else {
		if r.CommFrac < a.minComm {
			a.minComm = r.CommFrac
		}
		if r.CommFrac > a.maxComm {
			a.maxComm = r.CommFrac
		}
	}
	a.count++
	a.sumComm += r.CommFrac
	a.sumIter += float64(r.IterTime)
}

// Marginals accumulates per-axis marginal statistics of the comm
// fraction: for each sweep axis (H, SL, B, TP, evolution scenario) and
// each value it takes, the mean/min/max comm fraction and mean
// iteration time over every grid point with that value. The spread of
// the per-value means answers "which knob moves the comm fraction
// most" without storing a single grid row. Memory is bounded by the
// number of distinct axis values, not the grid size.
type Marginals struct {
	byH, bySL, byB, byTP map[int]*marginalAcc
	byEvo                map[string]*marginalAcc
	canceled             int64
}

// NewMarginals returns an empty marginals reducer.
func NewMarginals() *Marginals {
	return &Marginals{
		byH:   make(map[int]*marginalAcc),
		bySL:  make(map[int]*marginalAcc),
		byB:   make(map[int]*marginalAcc),
		byTP:  make(map[int]*marginalAcc),
		byEvo: make(map[string]*marginalAcc),
	}
}

func addTo[K comparable](m map[K]*marginalAcc, k K, r Row) {
	a := m[k]
	if a == nil {
		a = &marginalAcc{}
		m[k] = a
	}
	a.add(r)
}

// Emit implements Sink.
//
//lint:hotpath
func (m *Marginals) Emit(r Row) error {
	if !r.Finite() {
		// One NaN in a sum makes the whole axis mean NaN. Count it
		// instead; the per-value counts then total Rows - Canceled.
		m.canceled++
		return nil
	}
	addTo(m.byH, r.H, r)
	addTo(m.bySL, r.SL, r)
	addTo(m.byB, r.B, r)
	addTo(m.byTP, r.TP, r)
	addTo(m.byEvo, r.Evo, r)
	return nil
}

// Close implements Sink.
func (m *Marginals) Close(Trailer) error { return nil }

// Canceled returns the number of canceled (non-finite) rows skipped.
func (m *Marginals) Canceled() int64 { return m.canceled }

// MarginalValue is the digest of one axis value.
type MarginalValue struct {
	// Value is the axis value rendered as a string ("8192", "4x …").
	Value string
	Count int64
	// MeanCommFrac/MinCommFrac/MaxCommFrac summarize the comm fraction
	// over every row with this value.
	MeanCommFrac, MinCommFrac, MaxCommFrac float64
	// MeanIterTime is the mean projected iteration time.
	MeanIterTime units.Seconds
}

// AxisMarginal is one axis' digest, values in ascending axis order.
type AxisMarginal struct {
	Axis   string
	Values []MarginalValue
}

// Spread returns max - min of the per-value mean comm fractions: how
// much this knob alone moves the metric across its sweep range.
func (a AxisMarginal) Spread() float64 {
	if len(a.Values) == 0 {
		return 0
	}
	lo, hi := a.Values[0].MeanCommFrac, a.Values[0].MeanCommFrac
	for _, v := range a.Values[1:] {
		if v.MeanCommFrac < lo {
			lo = v.MeanCommFrac
		}
		if v.MeanCommFrac > hi {
			hi = v.MeanCommFrac
		}
	}
	return hi - lo
}

func intAxis(name string, m map[int]*marginalAcc) AxisMarginal {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := AxisMarginal{Axis: name}
	for _, k := range keys {
		out.Values = append(out.Values, value(fmt.Sprint(k), m[k]))
	}
	return out
}

func value(label string, a *marginalAcc) MarginalValue {
	return MarginalValue{
		Value:        label,
		Count:        a.count,
		MeanCommFrac: a.sumComm / float64(a.count),
		MinCommFrac:  a.minComm,
		MaxCommFrac:  a.maxComm,
		MeanIterTime: units.Seconds(a.sumIter / float64(a.count)),
	}
}

// Axes returns every axis digest in a fixed order (evo, H, SL, B, TP),
// each axis' values sorted ascending — deterministic regardless of
// arrival order.
func (m *Marginals) Axes() []AxisMarginal {
	evoKeys := make([]string, 0, len(m.byEvo))
	for k := range m.byEvo {
		evoKeys = append(evoKeys, k)
	}
	sort.Strings(evoKeys)
	evo := AxisMarginal{Axis: "evo"}
	for _, k := range evoKeys {
		evo.Values = append(evo.Values, value(k, m.byEvo[k]))
	}
	return []AxisMarginal{
		evo,
		intAxis("H", m.byH),
		intAxis("SL", m.bySL),
		intAxis("B", m.byB),
		intAxis("TP", m.byTP),
	}
}
