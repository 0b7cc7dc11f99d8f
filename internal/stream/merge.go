package stream

import "fmt"

// This file gives each online reducer a Merge: combine another
// reducer's digest into this one as if the rows behind both had flowed
// through a single reducer. Merge is the algebra that makes the
// reducers shard-parallel — a sweep partitioned into [lo,hi) ranges can
// reduce each shard locally (on the replica, or per fetched shard in
// the fan-out client) and fold the digests together centrally, paying
// per digest row instead of per grid row for everything after the
// first pass. TopK and Marginals fold in O(digest). A Pareto merge
// pushes the other frontier through the batch path: one skyline flush
// per paretoBatch rows folded, each O((F + B) log B) for a destination
// frontier of F rows and a batch of B, not a frontier scan per row.
//
// Exactness: Pareto and TopK merges are *exact* — the frontier of a
// union is the frontier of the union of frontiers, and betterRow is a
// total order (grid Index breaks ties), so top-K of a union is a unique
// set reachable from per-shard top-Ks. Marginals sums are exact in
// count/min/max but associate float additions differently than a
// single pass, so means can differ from a one-pass digest in the last
// ulp; merging the *same* shard partition in the same order is
// deterministic, which is what the replica-count invariance contract
// needs. The merge-vs-single-stream oracle tests in merge_test.go pin
// both properties.

// Merge folds another frontier into p as if its rows had streamed
// through p: o's frontier and its unflushed batch go through p's batch
// path. The other reducer is not modified (not even flushed) and must
// not be p itself — a self-merge would flush p's frontier while
// iterating it.
func (p *Pareto) Merge(o *Pareto) {
	for i := range o.frontier {
		p.add(&o.frontier[i])
	}
	for i := range o.batch {
		p.add(&o.batch[i])
	}
	p.canceled += o.canceled
}

// K returns the reducer's configured K.
func (t *TopK) K() int { return t.k }

// Merge folds another top-K digest into t as if its rows had streamed
// through t. The two reducers must share the same K: merging a smaller
// top-J would silently lose rows that belong in t's top-K. The other
// reducer is not modified and must not be t itself.
func (t *TopK) Merge(o *TopK) error {
	if o.k != t.k {
		return fmt.Errorf("stream: cannot merge top-%d digest into top-%d", o.k, t.k)
	}
	for _, r := range o.heap {
		_ = t.Emit(r)
	}
	t.canceled += o.canceled
	return nil
}

// merge folds another accumulator of the same axis value into a.
func (a *marginalAcc) merge(b *marginalAcc) {
	if b.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *b
		return
	}
	if b.minComm < a.minComm {
		a.minComm = b.minComm
	}
	if b.maxComm > a.maxComm {
		a.maxComm = b.maxComm
	}
	a.count += b.count
	a.sumComm += b.sumComm
	a.sumIter += b.sumIter
}

func mergeAxis[K comparable](dst, src map[K]*marginalAcc) {
	// Each key folds into its own accumulator exactly once, so the
	// result is independent of visit order — ordering only matters to
	// readers (Axes sorts), never to this merge.
	//lint:ignore detrange per-key merge is order-independent: distinct keys touch distinct accumulators
	for k, b := range src {
		a := dst[k]
		if a == nil {
			a = &marginalAcc{}
			dst[k] = a
		}
		a.merge(b)
	}
}

// Merge folds another marginals digest into m: per-axis-value counts,
// sums and extrema combine as if the rows had streamed through m. The
// other reducer is not modified.
func (m *Marginals) Merge(o *Marginals) {
	mergeAxis(m.byH, o.byH)
	mergeAxis(m.bySL, o.bySL)
	mergeAxis(m.byB, o.byB)
	mergeAxis(m.byTP, o.byTP)
	mergeAxis(m.byEvo, o.byEvo)
	m.canceled += o.canceled
}
