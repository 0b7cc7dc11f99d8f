package stream

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Pareto maintains the 3-objective Pareto frontier of the stream:
// the rows not dominated on (IterTime, CommFrac, MemBytes), all three
// minimized. A row dominates another when it is no worse on every
// objective and strictly better on at least one. The frontier is the
// standard answer to "which configurations are worth looking at" in an
// exhaustive design-space search: everything off it is beaten
// outright by some on-frontier configuration. Rows with identical
// objectives do not dominate each other, so equal-objective ties are
// all kept.
//
// Frontiers are not small. Each hardware scenario trades iteration
// time against comm fraction, so the frontier grows with the scenario
// count: the 499,200-row, 3200-scenario benchmark grid keeps 16,222
// rows and the 1,000,116-row, 6411-scenario grid 32,489. Scanning the
// frontier for every row is O(rows × frontier), so Pareto batches:
//
//   - Emit checks each row against one hint: the objectives of the
//     frontier member that dominated the latest-arriving row a flush
//     dropped. A row the hint dominates is off the frontier
//     (dominance is transitive), so it is dropped in O(1).
//   - The other rows are buffered. Every paretoBatch rows, a flush
//     merges the batch into the frontier with a Kung–Luccio–Preparata
//     sort-and-sweep. The batch is sorted in skyline order (IterTime,
//     CommFrac, MemBytes, Index) and merged with the frontier, which is
//     kept in that order. Every dominator of a row sorts before it, so
//     a row is dominated exactly when an earlier row has no larger
//     CommFrac and no larger MemBytes. A prefix-min Fenwick tree over
//     CommFrac ranks, holding MemBytes, answers that in one query.
//
// A flush costs O(F log B + B log B) for a frontier of F rows and a
// batch of B. A scan costs O(F·B). On the benchmark grid a third of
// the rows stop at the hint and the rest take 82 flushes. Emit then
// averages 600–670 ns/row, against 7,400–8,250 ns/row for the per-row
// scan this replaced (perfbench stream-digests, traced, 2-CPU
// container).
// Size, Frontier, Close and Merge flush first, so every result a
// caller can observe is exact at any point of the stream.
//
// Memory is bounded by the frontier (at most twice its peak size, from
// slice growth), one batch of paretoBatch rows, and flush scratch of
// fixed batch size: the permutation, the CommFrac keys and the tree.
// It depends on the frontier size, never on the row count. Close
// releases the batch and the scratch.
type Pareto struct {
	// frontier holds the flushed frontier in skyline order.
	frontier []Row
	// batch buffers the rows that passed the hint check since the last
	// flush, in arrival order.
	batch []Row
	// hint is the objectives of a frontier member that dominated a batch
	// row; hinted is false until a flush has found one.
	hint     objectives
	hinted   bool
	canceled int64

	// Flush scratch, kept between flushes: perm orders the batch, comm
	// holds the batch's distinct CommFrac values, and tree is the
	// prefix-min Fenwick tree over their ranks.
	perm []int32
	comm []float64
	tree []objectives
}

// paretoBatch is the number of rows Pareto buffers before a flush:
// large enough that the O(F) part of a flush is amortized over many
// rows, small enough that the batch stays a few hundred KB.
const paretoBatch = 4096

// objectives is the minimized objective triple of a row.
type objectives struct {
	iter, comm, mem float64
}

func objectivesOf(r *Row) objectives {
	return objectives{float64(r.IterTime), r.CommFrac, float64(r.MemBytes)}
}

// dominatesRow reports whether o is no worse than r on every objective
// and strictly better on at least one.
func (o objectives) dominatesRow(r *Row) bool {
	t, c, m := float64(r.IterTime), r.CommFrac, float64(r.MemBytes)
	if o.iter > t || o.comm > c || o.mem > m {
		return false
	}
	return o.iter < t || o.comm < c || o.mem < m
}

// NewPareto returns an empty frontier reducer.
func NewPareto() *Pareto { return &Pareto{} }

// cmpObjectives orders rows by (IterTime, CommFrac, MemBytes). Only
// finite rows reach it, so plain < and > decide every comparison.
func cmpObjectives(a, b *Row) int {
	if c := cmpFinite(float64(a.IterTime), float64(b.IterTime)); c != 0 {
		return c
	}
	if c := cmpFinite(a.CommFrac, b.CommFrac); c != 0 {
		return c
	}
	return cmpFinite(float64(a.MemBytes), float64(b.MemBytes))
}

// cmpFinite is cmp.Compare without the NaN cases.
func cmpFinite(a, b float64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// cmpSkyline is the frontier's storage order: objectives, then Index.
// Every row that dominates a row r sorts before r in this order.
func cmpSkyline(a, b *Row) int {
	if c := cmpObjectives(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// Emit implements Sink.
//
//lint:hotpath
func (p *Pareto) Emit(r Row) error {
	if !r.Finite() {
		// NaN's all-false comparisons would make r undominatable: it
		// would join the frontier and stay. Count it instead.
		p.canceled++
		return nil
	}
	p.add(&r)
	return nil
}

// add offers one finite row to the frontier.
func (p *Pareto) add(r *Row) {
	if p.hinted && p.hint.dominatesRow(r) {
		return
	}
	if p.batch == nil {
		p.batch = make([]Row, 0, paretoBatch)
		p.perm = make([]int32, paretoBatch)
		p.comm = make([]float64, 0, paretoBatch)
		p.tree = make([]objectives, paretoBatch+1)
	}
	if len(p.batch) == paretoBatch {
		p.flush()
	}
	p.batch = append(p.batch, *r)
}

// flush merges the batch into the frontier (see the Pareto comment).
func (p *Pareto) flush() {
	nb := len(p.batch)
	if nb == 0 {
		return
	}
	batch := p.batch
	perm := p.perm[:nb]
	for i := range perm {
		perm[i] = int32(i)
	}
	// The comparator captures batch but does not escape: SortFunc only
	// calls it (go build -gcflags=-m: "func literal does not escape"), and
	// TestParetoEmitAllocFree pins the flush at zero allocations.
	//lint:ignore hotalloc non-escaping comparator closure, verified by escape analysis and the alloc test
	slices.SortFunc(perm, func(a, b int32) int { return cmpSkyline(&batch[a], &batch[b]) })

	// The tree's key space is the batch's distinct CommFrac values. A
	// batch row needs every earlier row with no larger CommFrac, and a
	// frontier row only earlier batch rows: frontier members never
	// dominate each other. So a row x is recorded at the first key >= its
	// CommFrac and queries the keys <= its CommFrac, which covers both.
	comm := p.comm[:0]
	for i := range batch {
		comm = append(comm, batch[i].CommFrac)
	}
	slices.Sort(comm)
	comm = slices.Compact(comm)
	tree := p.tree[:len(comm)+1]
	for i := range tree {
		tree[i].mem = math.Inf(1)
	}

	// Sweep frontier and sorted batch in merged skyline order. Rows with
	// one objective triple are consecutive and share one verdict; survivors
	// are compacted in place — frontier rows to the front of p.frontier,
	// batch rows to the front of perm.
	var (
		i, j, keptF, keptB int
		prev               *Row
		dominated          bool
		hintSlot           = -1
	)
	nf := len(p.frontier)
	for i < nf || j < nb {
		var r *Row
		fromBatch := i == nf || (j < nb && cmpSkyline(&batch[perm[j]], &p.frontier[i]) < 0)
		if fromBatch {
			r = &batch[perm[j]]
		} else {
			r = &p.frontier[i]
		}
		if prev == nil || cmpObjectives(prev, r) != 0 {
			prev = r
			below, upTo := searchComm(comm, r.CommFrac)
			best := fenwickMin(tree, upTo)
			dominated = best.mem <= float64(r.MemBytes)
			switch {
			case !dominated:
				if below < len(comm) {
					fenwickLower(tree, below+1, objectivesOf(r))
				}
			case fromBatch && int(perm[j]) > hintSlot:
				// best dominates this row; the dominator of the latest
				// arrival is the likeliest to dominate the rows after it.
				hintSlot = int(perm[j])
				p.hint, p.hinted = best, true
			}
		}
		if fromBatch {
			if !dominated {
				perm[keptB] = perm[j]
				keptB++
			}
			j++
		} else {
			if !dominated {
				if keptF != i {
					p.frontier[keptF] = *r
					prev = &p.frontier[keptF]
				}
				keptF++
			}
			i++
		}
	}

	// Merge the batch survivors into the frontier from the back, so the
	// frontier is stored once and no survivor is overwritten before it
	// moves.
	n := keptF + keptB
	if cap(p.frontier) < n {
		p.frontier = slices.Grow(p.frontier[:keptF], n-keptF)
	}
	f := p.frontier[:n]
	i, j = keptF-1, keptB-1
	for k := n - 1; j >= 0; k-- {
		if i >= 0 && cmpSkyline(&f[i], &batch[perm[j]]) > 0 {
			f[k] = f[i]
			i--
		} else {
			f[k] = batch[perm[j]]
			j--
		}
	}
	p.frontier = f
	p.batch = batch[:0]
}

// searchComm returns how many keys are < c and how many are <= c: both
// bounds from one search, with plain < on finite keys instead of
// slices.BinarySearch's NaN-aware cmp.Compare. The flush searches once
// per frontier row, so this search is a large share of its time.
func searchComm(keys []float64, c float64) (below, upTo int) {
	n := len(keys)
	for n > 0 {
		half := n / 2
		if keys[below+half] < c {
			below += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	upTo = below
	if upTo < len(keys) && !(keys[upTo] > c) {
		upTo++
	}
	return below, upTo
}

// fenwickMin returns the entry with the smallest mem among tree
// positions 1..pos: the best row of every CommFrac rank up to pos.
func fenwickMin(tree []objectives, pos int) objectives {
	best := objectives{mem: math.Inf(1)}
	for ; pos > 0; pos -= pos & -pos {
		if tree[pos].mem < best.mem {
			best = tree[pos]
		}
	}
	return best
}

// fenwickLower records o at position pos.
func fenwickLower(tree []objectives, pos int, o objectives) {
	for ; pos < len(tree); pos += pos & -pos {
		if o.mem < tree[pos].mem {
			tree[pos] = o
		}
	}
}

// Close implements Sink. It flushes the pending batch and releases the
// batch and its scratch, so a finished reducer holds only its frontier
// while callers read it. A later Emit or Merge allocates them again.
func (p *Pareto) Close(Trailer) error {
	p.flush()
	p.batch, p.perm, p.comm, p.tree = nil, nil, nil, nil
	return nil
}

// Size returns the current frontier cardinality.
func (p *Pareto) Size() int {
	p.flush()
	return len(p.frontier)
}

// Canceled returns the number of canceled (non-finite) rows skipped.
func (p *Pareto) Canceled() int64 { return p.canceled }

// Frontier returns the non-dominated rows sorted by (IterTime, Index) —
// a deterministic order independent of arrival interleaving. The slice
// is a copy; the reducer keeps streaming.
func (p *Pareto) Frontier() []Row {
	p.flush()
	out := slices.Clone(p.frontier)
	sort.Slice(out, func(i, j int) bool { return betterRow(out[i], out[j]) })
	return out
}
