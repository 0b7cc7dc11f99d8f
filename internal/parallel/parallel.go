// Package parallel is the bounded worker-pool sweep engine behind the
// repo's grid studies. The paper's method projects hundreds of
// (H × SL × TP × evolution) configurations from one profiled baseline
// (§4.2.4, Table 3); those projections are embarrassingly parallel and
// independent, so this package fans them out over a bounded pool while
// keeping every observable result byte-identical to the sequential
// loop: outputs are ordered by grid index, and the reported error is
// the one the sequential loop would have hit first.
//
// There is one engine. StreamCtx hands its results to a sink chunk by
// chunk in index order; MapCtx and MapPartial collect that same output
// into a full-length slice. The engine is hardened for long production
// sweeps: a panicking task is contained and reported as an error naming
// its grid index (the process survives, see PanicError), sweeps can be
// canceled or deadlined through a context, and best-effort runs keep
// the completed prefix instead of discarding it (MapPartial).
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twocs/internal/telemetry"
)

// Workers resolves a worker-count setting: n > 0 requests exactly n
// workers, anything else defaults to runtime.NumCPU(). A resolved count
// of 1 selects the purely sequential path (no goroutines spawned).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// checkArgs validates the shared MapCtx/MapPartial/StreamCtx arguments.
func checkArgs(n int, fnNil bool) error {
	if n < 0 {
		return fmt.Errorf("parallel: negative task count %d", n)
	}
	if fnNil {
		return fmt.Errorf("parallel: nil task function")
	}
	return nil
}

// MaxChunk caps ChunkSize and sets the engine's memory bound: a sweep
// holds at most workers × MaxChunk results in flight (claimed but not
// yet emitted).
const MaxChunk = 512

// ChunkSize is the engine's one chunking rule: how many consecutive
// indices of an n-task sweep one claim hands a worker. It is n/16
// clamped to [1, 512]: a study grid of a few hundred points splits into
// 16 chunks, enough to balance a small pool while keeping claim and
// emission traffic low for cheap tasks, and grids of 8,192 rows and
// more use 512-row chunks. The size depends on n alone — never on the
// worker count or timing — so the chunk sequence, and with it every
// observable result and progress tally, is the same at any worker
// count.
func ChunkSize(n int) int {
	return min(max(n/16, 1), MaxChunk)
}

// runTask invokes fn(ctx, i) with panic containment: a panicking task
// becomes a *PanicError naming the grid index, with the stack captured
// for the report, instead of crashing the process.
func runTask[T any](ctx context.Context, fn func(context.Context, int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			telemetry.Active().Count("parallel.task.panics", 1)
			err = newPanicError(i, r)
		}
	}()
	return fn(ctx, i)
}

// run is the sweep engine behind StreamCtx, MapCtx and MapPartial. It
// evaluates fn(0) .. fn(n-1) in chunks of the given size and calls
// emit(lo, vals) for the results in index order, never concurrently
// with itself. A panic inside emit stops the sweep and reaches run's
// caller with its original value once every worker has stopped.
//
// The caller is worker 0 of a pool of Workers(workers). Each worker
// claims the next chunk from one counter, computes it, and hands it
// on before claiming another; claims stop once a task fails, emit
// fails or panics, or ctx is done, and the claimed chunks complete.
// Because chunks are claimed in index order, every index below a
// failing one is complete or inside a claimed chunk, so the error is
// the lowest-index one and the results before it are exactly the
// sequential loop's prefix; ctx's error is returned only when the
// claims stopped short of the last chunk.
//
// A nil dst streams: every worker computes into its own chunk-sized
// buffer and emits it itself when the chunk's turn comes, so at most
// one chunk per worker is in flight and memory stays bounded
// regardless of n. A chunk whose task failed is emitted up to the
// failure; an emit error ends the sweep and is returned as-is. pr,
// when non-nil, is the live /progress tracker: it learns the worker
// count, each worker's busy time, and the rows and chunks emitted.
//
// A non-nil dst collects: it is a length-n slice the results are
// computed into in place, without emission turns, and emit is not
// used. An incomplete sweep returns a *PartialError whose NumCompleted
// is the length of dst's valid prefix; chunks computed past a failure
// or cancellation stay in dst. Collecting callers pass a nil pr so
// they never touch the /progress tracker.
func run[T any](ctx context.Context, workers, n, chunk int, pr *telemetry.Progress, dst []T, fn func(context.Context, int) (T, error), emit func(lo int, vals []T) error) error {
	if n == 0 {
		return nil
	}
	nChunks := (n + chunk - 1) / chunk
	workers = min(Workers(workers), nChunks)
	pr.SetWorkers(workers)
	p := &pool[T]{
		fn: fn, emit: emit, dst: dst, n: n, chunk: chunk, nChunks: nChunks,
		tel: telemetry.Active(), pr: pr,
	}
	if dst == nil {
		p.turns = NewTurns()
	}
	if p.tel != nil {
		p.start = time.Now()
	}
	// The caller takes chunk 0 before the workers start, so the first
	// rows are emitted as soon as they exist.
	first := p.claim(ctx)
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// An emit panic is re-raised on the caller's goroutine,
			// where the HTTP server or the test that owns the sweep
			// can see it, instead of crashing the process here.
			defer func() {
				if r := recover(); r != nil {
					p.stop.Store(true)
					p.panicked.CompareAndSwap(nil, &r)
				}
			}()
			p.work(ctx, w, -1)
		}()
	}
	if workers > 1 {
		// A goroutine just started waits in this P's run-next slot until
		// the caller blocks or another P steals it; yield once so the
		// workers start now rather than after the caller's first chunk.
		runtime.Gosched()
	}
	func() {
		// However worker 0 exits — done, stopped, or unwinding a panic
		// from emit — the other workers stop claiming and finish their
		// current chunk before run goes on.
		defer p.wait(workers)
		p.work(ctx, 0, first)
	}()
	if r := p.panicked.Load(); r != nil {
		panic(*r)
	}
	if dst == nil {
		if err := p.turns.Err(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil && p.turns.Done() < nChunks {
			return err
		}
		return nil
	}
	// Collecting: every claimed chunk is complete up to its own
	// failure, so the valid prefix ends at the lowest failure or at the
	// first chunk nobody claimed.
	if p.failErr != nil {
		return &PartialError{Cause: p.failErr, Index: p.failAt, NumCompleted: p.failAt, Total: n}
	}
	if valid := int(p.claimed.Load()) * chunk; valid < n {
		return &PartialError{Cause: ctx.Err(), Index: -1, NumCompleted: valid, Total: n}
	}
	return nil
}

// pool is the state the caller and its workers share during one run.
type pool[T any] struct {
	fn                func(context.Context, int) (T, error)
	emit              func(lo int, vals []T) error
	dst               []T
	n, chunk, nChunks int
	tel               *telemetry.Collector
	pr                *telemetry.Progress

	// claimed is the next chunk to hand out (it runs past nChunks once
	// all are out); stop refuses further claims once the sweep is
	// failing or over.
	claimed atomic.Int64
	stop    atomic.Bool
	// turns orders emission when streaming.
	turns *Turns
	// failAt and failErr are the lowest failing index and its error
	// when collecting: written under mu, read once the workers stop.
	mu      sync.Mutex
	failAt  int
	failErr error
	// panicked holds an emit panic recovered on a worker goroutine.
	panicked atomic.Pointer[any]
	wg       sync.WaitGroup

	start     time.Time
	busyTotal atomic.Int64
}

// work is worker w's loop: compute the chunk it was handed (first, or
// -1 for none), then claim, compute and hand on chunks until none may
// be claimed. Worker 0 runs on the caller's goroutine.
func (p *pool[T]) work(ctx context.Context, w, first int) {
	var lane telemetry.Lane
	var start time.Time
	if p.tel != nil {
		lane = p.tel.Lane("sweep-worker " + strconv.Itoa(w))
		start = p.start
		if w > 0 {
			start = time.Now()
		}
	}
	var buf []T
	if p.dst == nil {
		buf = make([]T, 0, p.chunk)
	}
	var busy time.Duration
	defer func() { p.report(start, busy) }()
	c := first
	if c < 0 {
		c = p.claim(ctx)
	}
	for ; c >= 0; c = p.claim(ctx) {
		lo := c * p.chunk
		vals := buf[:0]
		if p.dst != nil {
			vals = p.dst[lo:lo:min(lo+p.chunk, p.n)]
		}
		vals, d, err := p.compute(ctx, lane, lo, vals)
		busy += d
		p.pr.WorkerBusy(w, d)
		if !p.handOn(c, lo, vals, err) {
			return
		}
	}
}

// compute runs the tasks of the chunk starting at lo, appending their
// results to vals, one trace span per task and stopping at the first
// error. It also returns the wall time spent inside tasks (zero with
// telemetry disabled).
func (p *pool[T]) compute(ctx context.Context, lane telemetry.Lane, lo int, vals []T) ([]T, time.Duration, error) {
	fn, tel := p.fn, p.tel
	var busy time.Duration
	for i, hi := lo, min(lo+p.chunk, p.n); i < hi; i++ {
		sp := lane.StartIndexed("task", i)
		v, err := runTask(ctx, fn, i)
		d := sp.End()
		busy += d
		tel.Observe("parallel.task.wall_ns", int64(d))
		if err != nil {
			// The sweep ends at this index; claiming past it would only
			// be discarded.
			p.stop.Store(true)
			return vals, busy, err
		}
		vals = append(vals, v)
	}
	return vals, busy, nil
}

// handOn passes on chunk c, whose results from lo are vals, cut short
// by err when a task failed. Streaming, it waits for the chunk's turn
// and emits it; collecting, it records a failure. It reports whether
// the worker may claim another chunk.
func (p *pool[T]) handOn(c, lo int, vals []T, err error) bool {
	if p.dst != nil {
		if err != nil {
			p.mu.Lock()
			if i := lo + len(vals); p.failErr == nil || i < p.failAt {
				p.failAt, p.failErr = i, err
			}
			p.mu.Unlock()
		}
		return err == nil
	}
	_, ok := p.turns.Do(c, func() error {
		if len(vals) > 0 {
			if eerr := p.emit(lo, vals); eerr != nil {
				return eerr
			}
			p.pr.AddRows(int64(len(vals)))
		}
		if err != nil {
			return err
		}
		p.pr.ChunkDone()
		return nil
	})
	if !ok {
		p.stop.Store(true)
	}
	return ok
}

// claim reserves the next chunk, or returns -1 when none may be claimed:
// every chunk is claimed, the sweep is stopping, or ctx is done.
func (p *pool[T]) claim(ctx context.Context) int {
	if p.stop.Load() || ctx.Err() != nil {
		return -1
	}
	if c := p.claimed.Add(1) - 1; c < int64(p.nChunks) {
		return int(c)
	}
	return -1
}

// wait stops further claims, waits for the other workers to finish
// their chunks, and records the pool's utilization.
func (p *pool[T]) wait(workers int) {
	p.stop.Store(true)
	p.wg.Wait()
	if p.tel != nil {
		if wall := int64(time.Since(p.start)) * int64(workers); wall > 0 {
			p.tel.SetGauge("parallel.worker.utilization",
				float64(p.busyTotal.Load())/float64(wall))
		}
	}
}

// report records a worker's busy time and its queue wait: the non-task
// time — claims, waiting for its emission turn, emitting, and tail
// idling after its last task.
func (p *pool[T]) report(start time.Time, busy time.Duration) {
	if p.tel == nil {
		return
	}
	p.busyTotal.Add(int64(busy))
	p.tel.Observe("parallel.worker.busy.wall_ns", int64(busy))
	p.tel.Observe("parallel.worker.queuewait.wall_ns", int64(time.Since(start)-busy))
}
