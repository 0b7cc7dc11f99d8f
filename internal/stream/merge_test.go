package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomSplit cuts [0, n) into 1..maxShards contiguous ranges.
func randomSplit(rng *rand.Rand, n, maxShards int) [][2]int {
	k := rng.Intn(maxShards) + 1
	cuts := map[int]bool{0: true, n: true}
	for len(cuts) < k+1 {
		cuts[rng.Intn(n+1)] = true
	}
	bounds := make([]int, 0, len(cuts))
	for c := range cuts {
		bounds = append(bounds, c)
	}
	for i := range bounds {
		for j := i + 1; j < len(bounds); j++ {
			if bounds[j] < bounds[i] {
				bounds[i], bounds[j] = bounds[j], bounds[i]
			}
		}
	}
	out := make([][2]int, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		out = append(out, [2]int{bounds[i], bounds[i+1]})
	}
	return out
}

func emitAll(t *testing.T, s Sink, rows []Row) {
	t.Helper()
	for _, r := range rows {
		if err := s.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParetoMergeOracle: reducing each shard of a random contiguous
// partition and merging the digests yields exactly the single-pass
// frontier — the frontier of a union is the frontier of the union of
// frontiers.
func TestParetoMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		rows := withCanceled(rng, randomGrid(rng, rng.Intn(300)+2), 20)

		single := NewPareto()
		emitAll(t, single, rows)

		merged := NewPareto()
		for _, sh := range randomSplit(rng, len(rows), 6) {
			p := NewPareto()
			emitAll(t, p, rows[sh[0]:sh[1]])
			merged.Merge(p)
		}
		diffRows(t, fmt.Sprintf("trial %d", trial), merged.Frontier(), single.Frontier())
		if merged.Canceled() != single.Canceled() {
			t.Fatalf("trial %d: merged canceled %d, single %d", trial, merged.Canceled(), single.Canceled())
		}
	}
}

// TestParetoMergeUnflushedSource: merging a reducer that still holds
// unflushed rows folds those rows in too, and leaves the source exactly
// as it was — neither flushed nor otherwise changed.
func TestParetoMergeUnflushedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	rows := withCanceled(rng, tradeoffGrid(rng, 3*paretoBatch, 20), 40)
	half := len(rows) / 2

	src, twin := NewPareto(), NewPareto()
	emitAll(t, src, rows[half:])
	emitAll(t, twin, rows[half:])
	if len(src.frontier) == 0 || len(src.batch) == 0 {
		t.Fatalf("source holds %d flushed and %d pending rows, want both nonzero",
			len(src.frontier), len(src.batch))
	}
	frontier, batch, canceled := slices.Clone(src.frontier), slices.Clone(src.batch), src.Canceled()

	dst := NewPareto()
	emitAll(t, dst, rows[:half])
	dst.Merge(src)

	diffRows(t, "source frontier after merge", src.frontier, frontier)
	diffRows(t, "source batch after merge", src.batch, batch)
	if src.Canceled() != canceled {
		t.Fatalf("merge changed the source's canceled count: %d -> %d", canceled, src.Canceled())
	}
	if src.Size() != twin.Size() {
		t.Fatalf("source Size() = %d after merge, twin %d", src.Size(), twin.Size())
	}
	diffRows(t, "source Frontier() after merge", src.Frontier(), twin.Frontier())

	diffRows(t, "merged", dst.Frontier(), bruteFrontier(finiteOnly(rows)))
	if want := int64(len(rows) - len(finiteOnly(rows))); dst.Canceled() != want {
		t.Fatalf("merged canceled %d, want %d", dst.Canceled(), want)
	}
}

// TestParetoMergeOracleBatchSizes: the merge-vs-single-stream oracle
// with shards one row short of, exactly at, and one row past a batch —
// sources holding a partial batch, a full unflushed batch, and a flushed
// frontier plus one pending row.
func TestParetoMergeOracleBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, shard := range []int{paretoBatch - 1, paretoBatch, paretoBatch + 1} {
		rows := withCanceled(rng, tradeoffGrid(rng, 3*shard+rng.Intn(shard), 20), 30)

		single := NewPareto()
		emitAll(t, single, rows)

		merged := NewPareto()
		for lo := 0; lo < len(rows); lo += shard {
			p := NewPareto()
			emitAll(t, p, rows[lo:min(lo+shard, len(rows))])
			merged.Merge(p)
		}
		label := fmt.Sprintf("shard %d", shard)
		want := bruteFrontier(finiteOnly(rows))
		diffRows(t, label+" single", single.Frontier(), want)
		diffRows(t, label+" merged", merged.Frontier(), want)
		if merged.Canceled() != single.Canceled() {
			t.Fatalf("%s: merged canceled %d, single %d", label, merged.Canceled(), single.Canceled())
		}
	}
}

// TestTopKMergeOracle: merging per-shard top-K digests reproduces the
// single-pass top-K exactly — betterRow is a total order, so the result
// set is unique and fully contained in the shard digests.
func TestTopKMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		rows := withCanceled(rng, randomGrid(rng, rng.Intn(300)+2), 15)
		k := rng.Intn(12) + 1

		single, err := NewTopK(k)
		if err != nil {
			t.Fatal(err)
		}
		emitAll(t, single, rows)

		merged, err := NewTopK(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range randomSplit(rng, len(rows), 6) {
			tk, err := NewTopK(k)
			if err != nil {
				t.Fatal(err)
			}
			emitAll(t, tk, rows[sh[0]:sh[1]])
			if err := merged.Merge(tk); err != nil {
				t.Fatal(err)
			}
		}
		diffRows(t, fmt.Sprintf("trial %d (k=%d)", trial, k), merged.Best(), single.Best())
		if merged.Canceled() != single.Canceled() {
			t.Fatalf("trial %d: merged canceled %d, single %d", trial, merged.Canceled(), single.Canceled())
		}
	}
}

// TestTopKMergeRejectsKMismatch: folding a top-3 digest into a top-5
// would silently drop rows that belong in the top 5 — it must error.
func TestTopKMergeRejectsKMismatch(t *testing.T) {
	a, _ := NewTopK(5)
	b, _ := NewTopK(3)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched K must error")
	}
	c, _ := NewTopK(5)
	if err := a.Merge(c); err != nil {
		t.Fatalf("same-K merge: %v", err)
	}
}

// TestMarginalsMergeOracle: counts and extrema merge exactly; means
// associate float additions differently than one pass, so they match
// to tight relative tolerance.
func TestMarginalsMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		rows := withCanceled(rng, randomGrid(rng, rng.Intn(300)+2), 18)

		single := NewMarginals()
		emitAll(t, single, rows)

		merged := NewMarginals()
		for _, sh := range randomSplit(rng, len(rows), 6) {
			m := NewMarginals()
			emitAll(t, m, rows[sh[0]:sh[1]])
			merged.Merge(m)
		}

		got, want := merged.Axes(), single.Axes()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d axes vs %d", trial, len(got), len(want))
		}
		for ai := range want {
			if got[ai].Axis != want[ai].Axis || len(got[ai].Values) != len(want[ai].Values) {
				t.Fatalf("trial %d axis %q: shape mismatch vs %q", trial, got[ai].Axis, want[ai].Axis)
			}
			for vi := range want[ai].Values {
				g, w := got[ai].Values[vi], want[ai].Values[vi]
				if g.Value != w.Value || g.Count != w.Count {
					t.Fatalf("trial %d %s/%s: count %d vs %d", trial, got[ai].Axis, g.Value, g.Count, w.Count)
				}
				//lint:ignore floatcmp min/max merge is exact: same comparisons, no arithmetic
				if g.MinCommFrac != w.MinCommFrac || g.MaxCommFrac != w.MaxCommFrac {
					t.Fatalf("trial %d %s/%s: extrema diverge: [%g,%g] vs [%g,%g]",
						trial, got[ai].Axis, g.Value, g.MinCommFrac, g.MaxCommFrac, w.MinCommFrac, w.MaxCommFrac)
				}
				if !closeRel(g.MeanCommFrac, w.MeanCommFrac, 1e-12) ||
					!closeRel(float64(g.MeanIterTime), float64(w.MeanIterTime), 1e-12) {
					t.Fatalf("trial %d %s/%s: means diverge beyond tolerance: %+v vs %+v",
						trial, got[ai].Axis, g.Value, g, w)
				}
			}
		}
		if merged.Canceled() != single.Canceled() {
			t.Fatalf("trial %d: merged canceled %d, single %d", trial, merged.Canceled(), single.Canceled())
		}
	}
}

func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

// TestMergeIntoEmpty: merging into a fresh reducer is the identity on
// the source digest, and merging an empty digest is a no-op.
func TestMergeIntoEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rows := randomGrid(rng, 100)

	src := NewPareto()
	emitAll(t, src, rows)
	dst := NewPareto()
	dst.Merge(src)
	diffRows(t, "fresh-dst", dst.Frontier(), src.Frontier())
	dst.Merge(NewPareto())
	diffRows(t, "empty-src", dst.Frontier(), src.Frontier())

	sm := NewMarginals()
	emitAll(t, sm, rows)
	dm := NewMarginals()
	dm.Merge(sm)
	dm.Merge(NewMarginals())
	if len(dm.Axes()) != len(sm.Axes()) {
		t.Fatal("marginals identity merge changed axis shape")
	}
}
