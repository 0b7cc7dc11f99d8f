package parallel

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"twocs/internal/telemetry"
)

// withProgress arms a fresh process-wide Progress for one test body and
// disarms it afterwards. The parallel package's tests never run
// t.Parallel, so the global tracker is not shared between tests.
func withProgress(t *testing.T, total int64) *telemetry.Progress {
	t.Helper()
	p := telemetry.NewProgress()
	p.Begin("test-stream", total)
	telemetry.EnableProgress(p)
	t.Cleanup(func() { telemetry.EnableProgress(nil) })
	return p
}

// TestStreamCtxProgressWorkerInvariant checks the accounting the
// /progress endpoint serves: after a full stream the tracker's rows
// equal n and its chunks equal the chunk count, at any worker count.
func TestStreamCtxProgressWorkerInvariant(t *testing.T) {
	const n = 1000
	nChunks := (n + ChunkSize(n) - 1) / ChunkSize(n)
	for _, workers := range []int{1, 3, 8} {
		p := withProgress(t, n)
		_, err := collectStream(t, context.Background(), workers, n, 0,
			func(_ context.Context, i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		ps := p.Snapshot()
		if ps.Rows != n {
			t.Errorf("w=%d: progress rows = %d, want %d", workers, ps.Rows, n)
		}
		if ps.Chunks != int64(nChunks) {
			t.Errorf("w=%d: progress chunks = %d, want %d", workers, ps.Chunks, nChunks)
		}
		if len(ps.Workers) > workers {
			t.Errorf("w=%d: %d worker entries", workers, len(ps.Workers))
		}
	}
}

// TestStreamCtxProgressMonotonicInEmit checks that inside each emission
// turn the tracker has accounted exactly the rows of all prior chunks:
// emission order is row order, so progress rows always equal lo.
func TestStreamCtxProgressMonotonicInEmit(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 4} {
		p := withProgress(t, n)
		var last int64
		err := StreamCtx(context.Background(), workers, n,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(lo int, vals []int) error {
				ps := p.Snapshot()
				if ps.Rows != int64(lo) {
					t.Fatalf("w=%d: in emit at lo=%d, progress rows = %d", workers, lo, ps.Rows)
				}
				if ps.Rows < last {
					t.Fatalf("w=%d: progress rows regressed %d -> %d", workers, last, ps.Rows)
				}
				last = ps.Rows
				return nil
			})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
	}
}

// TestStreamCtxProgressCancelMatchesEmitted checks the cancel contract
// the trailer consistency test in core relies on: after a canceled
// stream, the tracker's rows equal exactly the rows the sink received.
// The cancel lands in the first emission, so with 512-row chunks at
// most workers of them are claimed and the stream cannot complete.
func TestStreamCtxProgressCancelMatchesEmitted(t *testing.T) {
	const n, cancelAt = 20_000, 300
	for _, workers := range []int{1, 4} {
		p := withProgress(t, n)
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		err := StreamCtx(ctx, workers, n,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(lo int, vals []int) error {
				emitted += len(vals)
				if emitted >= cancelAt {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: err = %v, want canceled", workers, err)
		}
		if ps := p.Snapshot(); ps.Rows != int64(emitted) {
			t.Errorf("w=%d: progress rows = %d, sink got %d", workers, ps.Rows, emitted)
		}
	}
}

// TestStreamCtxProgressErrorMatchesEmitted: a failing task stops the
// stream after the prefix flush, and the tracker agrees with the sink.
func TestStreamCtxProgressErrorMatchesEmitted(t *testing.T) {
	const n, fail = 400, 133
	for _, workers := range []int{1, 4} {
		p := withProgress(t, n)
		emitted := 0
		err := StreamCtx(context.Background(), workers, n,
			func(_ context.Context, i int) (int, error) {
				if i == fail {
					return 0, fmt.Errorf("task %d failed", i)
				}
				return i, nil
			},
			func(lo int, vals []int) error {
				emitted += len(vals)
				return nil
			})
		if err == nil {
			t.Fatalf("w=%d: no error", workers)
		}
		if emitted != fail {
			t.Fatalf("w=%d: sink got %d rows, want %d", workers, emitted, fail)
		}
		if ps := p.Snapshot(); ps.Rows != int64(emitted) {
			t.Errorf("w=%d: progress rows = %d, sink got %d", workers, ps.Rows, emitted)
		}
	}
}
