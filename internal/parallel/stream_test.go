package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"twocs/internal/telemetry"
)

// collectStream streams n tasks and concatenates everything emitted,
// checking the chunk contract as it goes: lo values strictly increasing
// and contiguous with the rows received so far. chunk <= 0 runs
// StreamCtx itself (chunks of ChunkSize(n)); a positive chunk drives
// the engine directly at that size.
func collectStream(t *testing.T, ctx context.Context, workers, n, chunk int, fn func(context.Context, int) (int, error)) ([]int, error) {
	t.Helper()
	var got []int
	want := chunk
	if want <= 0 {
		want = ChunkSize(n)
	}
	emit := func(lo int, vals []int) error {
		if lo != len(got) {
			t.Fatalf("emit at lo=%d, want %d (rows must be contiguous and in order)", lo, len(got))
		}
		if len(vals) > want {
			t.Fatalf("emit delivered %d rows, chunk is %d", len(vals), want)
		}
		got = append(got, vals...)
		return nil
	}
	var err error
	if chunk <= 0 {
		err = StreamCtx(ctx, workers, n, fn, emit)
	} else {
		err = run(ctx, workers, n, chunk, telemetry.ActiveProgress(), nil, fn, emit)
	}
	return got, err
}

func TestStreamCtxEquivalence(t *testing.T) {
	square := func(_ context.Context, i int) (int, error) { return i * i, nil }
	for _, n := range []int{0, 1, 5, 64, 257, 1000} {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, chunk := range []int{1, 3, 64, 0} {
				got, err := collectStream(t, context.Background(), workers, n, chunk, square)
				if err != nil {
					t.Fatalf("n=%d w=%d c=%d: %v", n, workers, chunk, err)
				}
				if len(got) != n {
					t.Fatalf("n=%d w=%d c=%d: emitted %d rows", n, workers, chunk, len(got))
				}
				for i, v := range got {
					if v != i*i {
						t.Fatalf("n=%d w=%d c=%d: row %d = %d, want %d", n, workers, chunk, i, v, i*i)
					}
				}
			}
		}
	}
}

// TestStreamCtxLowestIndexError checks sequential-equivalent error
// selection: with every index >= fail failing, exactly the rows below
// fail are emitted and the error names the lowest failing index.
func TestStreamCtxLowestIndexError(t *testing.T) {
	const n, fail = 300, 97
	fn := func(_ context.Context, i int) (int, error) {
		if i >= fail {
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{1, 7, 64} {
			got, err := collectStream(t, context.Background(), workers, n, chunk, fn)
			if err == nil || err.Error() != fmt.Sprintf("task %d failed", fail) {
				t.Fatalf("w=%d c=%d: err = %v, want task %d", workers, chunk, err, fail)
			}
			if len(got) != fail {
				t.Fatalf("w=%d c=%d: emitted %d rows, want exactly %d", workers, chunk, len(got), fail)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("w=%d c=%d: row %d = %d", workers, chunk, i, v)
				}
			}
		}
	}
}

func TestStreamCtxPanicAttribution(t *testing.T) {
	const n, boom = 128, 41
	fn := func(_ context.Context, i int) (int, error) {
		if i == boom {
			panic("stream boom")
		}
		return i, nil
	}
	for _, workers := range []int{1, 4} {
		got, err := collectStream(t, context.Background(), workers, n, 8, fn)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("w=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != boom {
			t.Fatalf("w=%d: panic index %d, want %d", workers, pe.Index, boom)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("w=%d: panic stack not captured", workers)
		}
		if len(got) != boom {
			t.Fatalf("w=%d: emitted %d rows, want %d", workers, len(got), boom)
		}
	}
}

// TestStreamCtxCancel checks a canceled stream emits a clean contiguous
// prefix and reports the context's error.
func TestStreamCtxCancel(t *testing.T) {
	const n = 10_000
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		fn := func(ctx context.Context, i int) (int, error) {
			// Tasks after the fiftieth wait for the cancel, so the stream
			// cannot run ahead of it however the goroutines are scheduled.
			if c := ran.Add(1); c == 50 {
				cancel()
			} else if c > 50 {
				<-ctx.Done()
			}
			return i, nil
		}
		got, err := collectStream(t, ctx, workers, n, 16, fn)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(got) == n {
			t.Fatalf("w=%d: cancellation emitted the full grid", workers)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("w=%d: row %d = %d after cancel", workers, i, v)
			}
		}
		cancel()
	}
}

// TestStreamCtxLateCancelIsSuccess: a context that fires after every
// chunk was emitted does not fail the stream.
func TestStreamCtxLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	got, err := collectStream(t, ctx, 4, 100, 8, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	cancel() // fires only after StreamCtx returned
	if err != nil || len(got) != 100 {
		t.Fatalf("got %d rows, err %v", len(got), err)
	}

	// And a context canceled before the call emits nothing.
	canceled, stop := context.WithCancel(context.Background())
	stop()
	got, err = collectStream(t, canceled, 4, 100, 8, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled stream: err = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("pre-canceled stream emitted %d rows", len(got))
	}
}

func TestStreamCtxEmitError(t *testing.T) {
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 4} {
		calls := 0
		err := StreamCtx(context.Background(), workers, 1000,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(lo int, vals []int) error {
				calls++
				if calls == 3 {
					return sinkErr
				}
				return nil
			})
		if !errors.Is(err, sinkErr) {
			t.Fatalf("w=%d: err = %v, want sink error", workers, err)
		}
	}
}

func TestStreamCtxArgErrors(t *testing.T) {
	if err := StreamCtx(context.Background(), 1, -1,
		func(_ context.Context, i int) (int, error) { return 0, nil },
		func(int, []int) error { return nil }); err == nil {
		t.Fatal("negative n accepted")
	}
	if err := StreamCtx[int](context.Background(), 1, 1, nil,
		func(int, []int) error { return nil }); err == nil {
		t.Fatal("nil fn accepted")
	}
	if err := StreamCtx(context.Background(), 1, 1,
		func(_ context.Context, i int) (int, error) { return 0, nil }, nil); err == nil {
		t.Fatal("nil emit accepted")
	}
}

// TestStreamCtxEmitPanicReachesCaller: a panic inside emit surfaces on
// StreamCtx's own goroutine with its original value — at every worker
// count, and also when a worker would otherwise be mid-chunk — so a
// caller can recover it (net/http does, for http.ErrAbortHandler).
func TestStreamCtxEmitPanicReachesCaller(t *testing.T) {
	type boom struct{ chunk int }
	const n = 16 * 512 // sixteen 512-row chunks
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = StreamCtx(context.Background(), workers, n,
				func(_ context.Context, i int) (int, error) {
					ran.Add(1)
					return i, nil
				},
				func(lo int, vals []int) error {
					if c := lo / len(vals); c == 2 {
						panic(boom{c})
					}
					return nil
				})
			return nil
		}()
		if got != (boom{2}) {
			t.Fatalf("w=%d: recovered %v, want the emit panic's own value", workers, got)
		}
		// The workers stopped before StreamCtx unwound: nothing runs
		// after the caller recovered.
		after := ran.Load()
		time.Sleep(10 * time.Millisecond)
		if ran.Load() != after {
			t.Fatalf("w=%d: tasks still running after the panic reached the caller", workers)
		}
	}
}

// BenchmarkStreamCtx measures the engine's per-row overhead at the
// default chunk size with trivially cheap tasks.
func BenchmarkStreamCtx(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := StreamCtx(context.Background(), 4, 100_000,
			func(_ context.Context, i int) (int64, error) { return int64(i), nil },
			func(lo int, vals []int64) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
