package parallel

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestChunkSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1},       // tiny grid: no batching possible
		{15, 1},      // fewer than 16 tasks: one task per chunk
		{156, 9},     // the Table 3 serialized grid: 18 chunks
		{768, 48},    // a large study grid: 16 chunks
		{8_191, 511}, // just under the cap
		{8_192, 512}, // capped from here on
		{1_000_116, 512},
	}
	for _, c := range cases {
		if got := ChunkSize(c.n); got != c.want {
			t.Errorf("ChunkSize(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestMapChunkedCompleteCoverage runs sizes that exercise ragged final
// chunks and more claims than workers, checking every index is
// evaluated exactly once and lands in its own slot.
func TestMapChunkedCompleteCoverage(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 257, 1024} {
		for _, workers := range []int{2, 4, 7} {
			var calls atomic.Int64
			out, err := MapCtx(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
				calls.Add(1)
				return i * i, nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if c := calls.Load(); c != int64(n) {
				t.Fatalf("n=%d workers=%d: %d calls", n, workers, c)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("n=%d workers=%d: out[%d] = %d", n, workers, i, v)
				}
			}
		}
	}
}

// TestMapChunkedLowestIndexAcrossChunks places a late failure so it is
// observed (and further claims stopped) before an earlier chunk's
// failure runs. Because claimed chunks are visited to completion, the
// earlier index must still win — the invariant chunking must preserve.
func TestMapChunkedLowestIndexAcrossChunks(t *testing.T) {
	const n = 1024 // chunk 64: indices 5 and 700 are claims apart
	release := make(chan struct{})
	var sawLate atomic.Bool
	_, err := MapCtx(context.Background(), 2, n, func(_ context.Context, i int) (int, error) {
		switch {
		case i == 700:
			// Fail fast and let the early chunk's worker proceed only
			// afterwards, forcing the flag-raised-first interleaving.
			sawLate.Store(true)
			close(release)
			return 0, fmt.Errorf("boom at %d", i)
		case i == 5:
			if sawLate.Load() {
				<-release
			}
			return 0, fmt.Errorf("boom at %d", i)
		case i < 64:
			// Stall the low chunk's worker so index 700 is reached first
			// on the other worker in most schedules.
			for j := 0; j < 1000; j++ {
				_ = j
			}
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom at 5" {
		t.Fatalf("err = %v, want boom at 5", err)
	}
}

// TestMapChunkedPanicIndex checks a panic mid-chunk is attributed to
// its own index, not the chunk boundary.
func TestMapChunkedPanicIndex(t *testing.T) {
	_, err := MapCtx(context.Background(), 2, 1024, func(_ context.Context, i int) (int, error) {
		if i == 37 {
			panic("kaboom")
		}
		return i, nil
	})
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("err = %T (%v), want *PanicError", err, err)
	}
	if pe.Index != 37 {
		t.Fatalf("panic attributed to index %d, want 37", pe.Index)
	}
}
