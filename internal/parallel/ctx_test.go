package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapContainsPanicAsLowestIndexError(t *testing.T) {
	// A panicking task must not kill the process; it must surface as a
	// *PanicError naming the grid index, and the lowest-index guarantee
	// must hold against both other panics and ordinary errors.
	for _, workers := range []int{1, 2, 8} {
		_, err := MapCtx(context.Background(), workers, 64, func(_ context.Context, i int) (int, error) {
			switch i {
			case 9:
				panic("boom")
			case 33:
				panic("later boom")
			case 40:
				return 0, errors.New("plain error")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 9 {
			t.Fatalf("workers=%d: panic index = %d, want 9", workers, pe.Index)
		}
		if !strings.Contains(err.Error(), "task 9 panicked: boom") {
			t.Fatalf("workers=%d: err = %q, want task 9 named", workers, err)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("workers=%d: panic stack not captured", workers)
		}
	}
}

func TestMapPanicEqualsSequential(t *testing.T) {
	// Sequential-equivalence for panics: parallel runs report the same
	// (lowest) panic index the sequential loop hits first.
	fn := func(_ context.Context, i int) (int, error) {
		if i%13 == 5 {
			panic(fmt.Sprintf("p@%d", i))
		}
		return i, nil
	}
	_, seqErr := MapCtx(context.Background(), 1, 50, fn)
	for _, workers := range []int{2, 4, 16} {
		_, parErr := MapCtx(context.Background(), workers, 50, fn)
		if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
			t.Fatalf("workers=%d: parallel %v != sequential %v", workers, parErr, seqErr)
		}
	}
}

func TestMapCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		const n = 10_000
		out, err := MapCtx(ctx, workers, n, func(ctx context.Context, i int) (int, error) {
			// Tasks after the eighth wait for the cancel, so no chunk
			// completes before it however the goroutines are scheduled.
			if c := calls.Add(1); c == 8 {
				cancel()
			} else if c > 8 {
				<-ctx.Done()
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: strict mode returned results on cancel", workers)
		}
		if c := calls.Load(); c >= n {
			t.Fatalf("workers=%d: cancellation did not stop claiming (%d calls)", workers, c)
		}
	}
}

func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := MapCtx(ctx, 2, 1_000_000, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-ctx.Done() // park until the deadline fires
		}
		return i, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMapCtxCompletesDespiteLateCancel(t *testing.T) {
	// A context that fires after the last task completed is a success.
	ctx, cancel := context.WithCancel(context.Background())
	out, err := MapCtx(ctx, 4, 32, func(context.Context, int) (int, error) { return 7, nil })
	cancel()
	if err != nil || len(out) != 32 {
		t.Fatalf("completed sweep reported (%d results, %v)", len(out), err)
	}
}

func TestMapPartialKeepsCompletedWork(t *testing.T) {
	// Best-effort mode: a mid-grid failure keeps the completed prefix
	// and reports the rest through a structured PartialError.
	for _, workers := range []int{1, 4} {
		out, err := MapPartial(context.Background(), workers, 40,
			func(_ context.Context, i int) (int, error) {
				if i == 25 {
					return 0, errors.New("bad point")
				}
				return i * 2, nil
			})
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
		}
		if pe.Index != 25 || pe.Cause.Error() != "bad point" {
			t.Fatalf("workers=%d: cause = (%d, %v)", workers, pe.Index, pe.Cause)
		}
		if len(out) != 40 || pe.Total != 40 || pe.NumCompleted != 25 {
			t.Fatalf("workers=%d: len=%d total=%d done=%d, want 40/40/25",
				workers, len(out), pe.Total, pe.NumCompleted)
		}
		// The valid prefix holds the computed values; everything from the
		// failing index on is a zero value.
		for i, v := range out {
			want := 0
			if i < pe.NumCompleted {
				want = i * 2
			}
			if v != want {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, want)
			}
		}
		if !strings.Contains(err.Error(), "(25/40 tasks done)") {
			t.Fatalf("workers=%d: err = %q", workers, err)
		}
	}
}

// TestMapPartialFailureIsWorkerInvariant: a best-effort sweep whose
// failing task is slow — task 25 waits for task 39 to finish, with a
// timeout in case 39 never runs — returns the same result at one
// worker and at four. Points past the failure are never reported as
// completed, even when another worker could have computed them while
// the failing task stalled.
func TestMapPartialFailureIsWorkerInvariant(t *testing.T) {
	const n, fail, late = 40, 25, 39
	sweep := func(workers int) ([]int, *PartialError) {
		lateDone := make(chan struct{})
		out, err := MapPartial(context.Background(), workers, n,
			func(_ context.Context, i int) (int, error) {
				switch i {
				case fail:
					select {
					case <-lateDone:
					case <-time.After(100 * time.Millisecond):
					}
					return 0, errors.New("bad point")
				case late:
					defer close(lateDone)
				}
				return i + 1, nil
			})
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
		}
		return out, pe
	}
	seqOut, seqPE := sweep(1)
	parOut, parPE := sweep(4)
	if seqPE.NumCompleted != fail || parPE.NumCompleted != fail {
		t.Fatalf("NumCompleted = %d (1 worker) / %d (4 workers), want %d",
			seqPE.NumCompleted, parPE.NumCompleted, fail)
	}
	if seqPE.Index != parPE.Index || seqPE.Error() != parPE.Error() {
		t.Fatalf("errors differ: %v / %v", seqPE, parPE)
	}
	for i := range seqOut {
		if seqOut[i] != parOut[i] {
			t.Fatalf("out[%d] = %d (1 worker) / %d (4 workers)", i, seqOut[i], parOut[i])
		}
	}
}

func TestMapPartialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any task runs
	out, err := MapPartial(ctx, 4, 16, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PartialError does not unwrap to context.Canceled: %v", err)
	}
	if pe.Index != -1 || pe.NumCompleted != 0 || len(out) != 16 {
		t.Fatalf("pre-canceled sweep: index=%d done=%d len=%d", pe.Index, pe.NumCompleted, len(out))
	}
}

func TestMapPartialPanicUnwraps(t *testing.T) {
	_, err := MapPartial(context.Background(), 2, 8, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("kaboom")
		}
		return i, nil
	})
	var pan *PanicError
	if !errors.As(err, &pan) || pan.Index != 3 {
		t.Fatalf("err = %v, want *PanicError at 3 through PartialError", err)
	}
	if got := Cause(err); got != pan {
		t.Fatalf("Cause(%v) = %v, want the panic error", err, got)
	}
}

func TestMapPartialCompleteRunHasNilError(t *testing.T) {
	out, err := MapPartial(context.Background(), 4, 10,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 10 {
		t.Fatalf("complete run: (%d, %v)", len(out), err)
	}
}

func TestMapPartialArgErrors(t *testing.T) {
	if _, err := MapPartial[int](context.Background(), 2, -1, nil); err == nil {
		t.Fatal("invalid args accepted")
	} else if _, ok := err.(*PartialError); ok {
		t.Fatal("argument error wrapped as PartialError")
	}
}

func TestCausePassesPlainErrors(t *testing.T) {
	plain := errors.New("plain")
	if Cause(plain) != plain {
		t.Fatal("Cause rewrote a plain error")
	}
	if Cause(nil) != nil {
		t.Fatal("Cause(nil) != nil")
	}
}
