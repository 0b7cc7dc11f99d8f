package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"twocs/internal/parallel"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errors.New("plain failure"), 1},
		{context.Canceled, 3},
		{context.DeadlineExceeded, 3},
		{&parallel.PartialError{Cause: context.Canceled}, 3},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestTimedOutSweepExitsPartial is the documented-behavior smoke test:
// a sweep that hits -timeout must return the partial-results error
// (exit status 3 in main) after rendering the grid with "(canceled)"
// cells for the points that never ran.
func TestTimedOutSweepExitsPartial(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-timeout", "1ns", "serialized"}, &b)
	if err == nil {
		t.Fatal("timed-out sweep returned nil error")
	}
	if got := exitCode(err); got != 3 {
		t.Fatalf("exitCode = %d, want 3 (err: %v)", got, err)
	}
	var pe *parallel.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PartialError: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to DeadlineExceeded: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, canceledCell) {
		t.Errorf("partial grid missing %q cells:\n%s", canceledCell, out)
	}
	// The grid skeleton still prints: headers and at least one
	// coordinate row, so the reader sees which points are missing.
	if !strings.Contains(out, "comm fraction") {
		t.Errorf("partial output missing table header:\n%s", out)
	}
}

// TestTimedOutSpeedupStops: speedup prices two grids, and -timeout must
// stop them rather than let the command run to completion.
func TestTimedOutSpeedupStops(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-timeout", "1ns", "speedup"}, &b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out speedup: err = %v, want DeadlineExceeded", err)
	}
	if got := exitCode(err); got != 3 {
		t.Fatalf("exitCode = %d, want 3", got)
	}
}

// TestTimedOutRunFlushesTrace checks the deferred-flush satellite: a
// run that dies on the -timeout deadline must still write its -trace
// artifact, and the file must be the valid Chrome-trace JSON array a
// healthy run would produce.
func TestTimedOutRunFlushesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var b strings.Builder
	err := run([]string{"-timeout", "1ns", "-trace", path, "serialized"}, &b)
	if exitCode(err) != 3 {
		t.Fatalf("want the partial-results error, got: %v", err)
	}
	data, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatalf("trace not flushed on timeout: %v", readErr)
	}
	var events []map[string]any
	if jsonErr := json.Unmarshal(data, &events); jsonErr != nil {
		t.Fatalf("flushed trace is not valid JSON: %v\n%s", jsonErr, data)
	}
}

// TestSignalCancelsSweep drives the SIGINT path main wires up: a
// NotifyContext canceled by a real signal makes runCtx return the
// partial-results error instead of hanging or crashing.
func TestSignalCancelsSweep(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("raise SIGINT: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	var b strings.Builder
	err := runCtx(ctx, []string{"serialized"}, &b)
	if exitCode(err) != 3 {
		t.Fatalf("interrupted sweep: exitCode = %d, err = %v", exitCode(err), err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to Canceled: %v", err)
	}
	if !strings.Contains(b.String(), canceledCell) {
		t.Errorf("interrupted grid missing %q cells:\n%s", canceledCell, b.String())
	}
}

func TestCmdDegradation(t *testing.T) {
	out := runCmd(t, "degradation", "-tp", "8")
	for _, want := range []string{
		"healthy", "link at 50%", "straggler 1.5x", "combined",
		"shift (pp)", "simulated iteration",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degradation output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdDegradationCSV(t *testing.T) {
	out := runCmd(t, "degradation", "-tp", "8", "-straggler", "0", "-csv")
	if !strings.HasPrefix(out, "fault,compute,") {
		t.Errorf("csv header missing: %q", out)
	}
	if strings.Contains(out, "simulated iteration") {
		t.Errorf("-straggler 0 should skip the sim comparison:\n%s", out)
	}
}
