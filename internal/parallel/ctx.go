package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
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
// full-length; Completed says which entries are valid.
type PartialError struct {
	// Cause is why the sweep stopped: the lowest-index task error
	// (possibly a *PanicError), or the context's error when the sweep
	// was canceled or deadlined with no task failure.
	Cause error
	// Index is the grid index of a task-error Cause, -1 when Cause is
	// the context's error.
	Index int
	// Completed[i] reports whether task i finished successfully; the
	// result slice is valid exactly at these indices.
	Completed []bool
	// NumCompleted counts the true entries of Completed.
	NumCompleted int
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("parallel: sweep incomplete (%d/%d tasks done): %v",
		e.NumCompleted, len(e.Completed), e.Cause)
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
// lowest-index like any other error. The first observed failure cancels
// the sweep — no new chunks are claimed — but already-claimed chunks run
// to completion (or to their own, lower-index error), which is what
// makes the lowest-index guarantee hold: chunks are claimed
// monotonically, so every index below a failing one is either complete
// or inside a claimed chunk whose worker will still visit it when the
// failure is recorded.
//
// The sweep also stops claiming new indices once ctx is canceled or its
// deadline passes (in-flight evaluations finish), and fn receives the
// context so individual tasks can honor it too. A task error takes
// precedence over a cancellation; a cancellation with no task failure
// returns ctx.Err(). A context that fires only after every task
// completed is a success.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	if err := checkArgs(n, fn == nil); err != nil {
		return nil, err
	}
	out, oc := mapEngine(ctx, workers, n, fn)
	if oc.cause != nil {
		return nil, oc.cause
	}
	return out, nil
}

// MapPartial is the best-effort MapCtx: instead of discarding a
// partially completed sweep it returns the full-length result slice
// plus a *PartialError describing what is missing and why. Entries at
// indices where PartialError.Completed is false are zero values. A
// complete sweep returns a nil error; argument errors (negative n, nil
// fn) are returned as plain errors with no results.
func MapPartial[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	if err := checkArgs(n, fn == nil); err != nil {
		return nil, err
	}
	out, oc := mapEngine(ctx, workers, n, fn)
	if oc.cause != nil {
		return out, &PartialError{
			Cause:        oc.cause,
			Index:        oc.causeIdx,
			Completed:    oc.completed,
			NumCompleted: oc.nDone,
		}
	}
	return out, nil
}
