package parallel

import (
	"context"
	"fmt"

	"twocs/internal/telemetry"
)

// StreamCtx is the streaming face of the sweep engine. MapCtx and
// MapPartial materialize a full result slice — fine for a
// hundreds-point figure, the memory ceiling for a 10⁶-10⁷ point
// design-space search. StreamCtx keeps the same contracts (index
// order, sequential-equivalent errors, panic attribution, cooperative
// cancellation) while holding only O(workers × MaxChunk) results in
// memory.

// StreamCtx evaluates fn(0) .. fn(n-1) using at most Workers(workers)
// goroutines and hands the results to emit in strict index order, chunk
// by chunk: emit(lo, vals) delivers the results of indices
// [lo, lo+len(vals)), in chunks of ChunkSize(n). The worker that
// computed a chunk emits it when the chunk's turn comes, so emit runs
// on any of the workers but never concurrently with itself, and each
// call happens after the previous one returned: emit may keep state
// without locking. It must not retain vals — the buffer is reused for
// a later chunk. A panic in emit stops the workers and then continues
// to StreamCtx's caller with its original value (an HTTP handler's
// http.ErrAbortHandler still works).
//
// Each worker holds at most one chunk, so at most workers × MaxChunk
// results are in flight and peak memory is bounded regardless of n —
// the property that lets a 10⁶-point grid stream through a fixed-size
// window. The emitted byte stream is identical to the sequential
// loop's at any worker count.
//
// Error semantics are sequential-equivalent, like MapCtx: every row before
// the failing index is emitted, no row at or after it is, and the
// returned error is the lowest-index task error (panics contained as
// *PanicError). An emit error aborts the stream and is returned as-is.
// Cancellation stops new chunk claims; claimed chunks complete and are
// emitted, then ctx's error is returned. A context that fires only
// after every chunk was claimed is a success.
//
// The active /progress tracker (telemetry.ActiveProgress) follows the
// stream: rows and chunks as they are emitted, and per-worker busy time.
func StreamCtx[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error), emit func(lo int, vals []T) error) error {
	if err := checkArgs(n, fn == nil); err != nil {
		return err
	}
	if emit == nil {
		return fmt.Errorf("parallel: nil emit function")
	}
	if n == 0 {
		return nil
	}
	tel := telemetry.Active()
	tel.Count("parallel.stream.calls", 1)
	tel.Count("parallel.stream.tasks", int64(n))
	err := run(ctx, workers, n, ChunkSize(n), telemetry.ActiveProgress(), nil, fn, func(lo int, vals []T) error {
		if err := emit(lo, vals); err != nil {
			return err
		}
		tel.Count("parallel.stream.rows", int64(len(vals)))
		return nil
	})
	if err != nil && err == ctx.Err() {
		tel.Count("parallel.stream.canceled", 1)
	}
	return err
}
