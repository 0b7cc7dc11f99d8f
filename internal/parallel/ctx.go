package parallel

import (
	"context"
	"fmt"
	"runtime/debug"

	"twocs/internal/telemetry"
)

// This file is the robustness surface of the sweep engine: context
// propagation (cancellation and deadlines), the error type a contained
// task panic converts into, and the best-effort mode that keeps a
// partially completed grid instead of discarding it — the behavior a
// production service wants when one projection out of hundreds dies or
// a request deadline fires mid-sweep.

// PanicError is a task panic contained by the sweep engine. It names
// the grid index so a failing point in a hundreds-wide grid is
// identifiable, and carries the panicking goroutine's stack for the
// report.
type PanicError struct {
	// Index is the grid index of the panicking task.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover.
	Stack []byte
}

func newPanicError(index int, value any) *PanicError {
	return &PanicError{Index: index, Value: value, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// PartialError reports a best-effort sweep that stopped before
// completing every task. The result slice returned alongside it is
// full-length; its first NumCompleted entries are valid and the rest
// are zero values. The valid entries are always a prefix — exactly the
// entries the sequential loop would have completed before stopping —
// so a partial result is the same at any worker count.
type PartialError struct {
	// Cause is why the sweep stopped: the lowest-index task error
	// (possibly a *PanicError), or the context's error when the sweep
	// was canceled or deadlined with no task failure.
	Cause error
	// Index is the grid index of a task-error Cause (always
	// NumCompleted), -1 when Cause is the context's error.
	Index int
	// NumCompleted is the length of the valid result prefix.
	NumCompleted int
	// Total is the sweep's task count, the result slice's length.
	Total int
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("parallel: sweep incomplete (%d/%d tasks done): %v",
		e.NumCompleted, e.Total, e.Cause)
}

// Unwrap exposes Cause to errors.Is/errors.As, so callers can test for
// context.Canceled, context.DeadlineExceeded or *PanicError through a
// PartialError.
func (e *PartialError) Unwrap() error { return e.Cause }

// Cause strips a *PartialError down to its cause, returning any other
// error unchanged — the error the sequential loop would have reported.
func Cause(err error) error {
	if pe, ok := err.(*PartialError); ok {
		return pe.Cause
	}
	return err
}

// collect runs the engine into a full-length slice, returning it and,
// for an incomplete sweep, the *PartialError describing its valid
// prefix; entries past the prefix are zero values. Collecting sweeps
// never touch the /progress tracker: that belongs to the stream being
// served, and a study request running alongside must not disturb it.
func collect[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, *PartialError) {
	if n == 0 {
		return nil, nil
	}
	tel := telemetry.Active()
	tel.Count("parallel.map.calls", 1)
	tel.Count("parallel.map.tasks", int64(n))
	out := make([]T, n)
	err := run(ctx, workers, n, ChunkSize(n), nil, out, fn, nil)
	if err == nil {
		return out, nil
	}
	pe := err.(*PartialError)
	// Chunks computed past the stop are not part of the result; clear
	// them so it does not depend on how far the workers got.
	clear(out[pe.NumCompleted:])
	if pe.Index < 0 {
		tel.Count("parallel.map.canceled", 1)
	}
	return out, pe
}

// MapCtx evaluates fn(ctx, 0) .. fn(ctx, n-1) using at most
// Workers(workers) goroutines and returns the results indexed like the
// inputs — the output slice is deterministic regardless of worker count
// or scheduling. fn must be safe for concurrent invocation when more
// than one worker is requested.
//
// Error semantics match the sequential loop: on failure MapCtx discards
// the results and returns the error of the lowest failing index. A task
// that panics does not kill the process; the panic is contained and
// reported as a *PanicError at that task's index, competing for
// lowest-index like any other error. The first observed failure stops
// the sweep — no new chunks are claimed — but claimed chunks run to
// completion (or to their own error), and because chunks are claimed
// in index order every index below a failing one is either complete or
// claimed: the lowest-index guarantee holds.
//
// The sweep also stops claiming once ctx is canceled or its deadline
// passes (claimed chunks finish), and fn receives the context so
// individual tasks can honor it too. A task error takes precedence
// over a cancellation; a cancellation with no task failure returns
// ctx.Err(). A context that fires only after every chunk was claimed
// is a success.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	if err := checkArgs(n, fn == nil); err != nil {
		return nil, err
	}
	out, pe := collect(ctx, workers, n, fn)
	if pe != nil {
		return nil, pe.Cause
	}
	return out, nil
}

// MapPartial is the best-effort MapCtx: instead of discarding a
// partially completed sweep it returns the full-length result slice
// plus a *PartialError saying how long its valid prefix is and why the
// rest is missing. A complete sweep returns a nil error; argument
// errors (negative n, nil fn) are returned as plain errors with no
// results.
func MapPartial[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	if err := checkArgs(n, fn == nil); err != nil {
		return nil, err
	}
	out, pe := collect(ctx, workers, n, fn)
	if pe != nil {
		return out, pe
	}
	return out, nil
}
