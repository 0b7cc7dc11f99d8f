package core

import (
	"context"
	"errors"
	"testing"

	"twocs/internal/hw"
	"twocs/internal/telemetry"
)

// These tests pin the contract between the streamed grid and the live
// progress tracker the debug server's /progress endpoint serves: the
// tracker's final state must tell the same story as the sink's trailer
// — same row count, same completion verdict, same reason — whether the
// stream ran to completion or was canceled mid-flight.

func armProgress(t *testing.T) *telemetry.Progress {
	t.Helper()
	p := telemetry.NewProgress()
	telemetry.EnableProgress(p)
	t.Cleanup(func() { telemetry.EnableProgress(nil) })
	return p
}

func TestStreamGridProgressComplete(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	evos := hw.PaperScenarios()
	p := armProgress(t)

	var sink collectSink
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos, &sink); err != nil {
		t.Fatal(err)
	}

	ps := p.Snapshot()
	if ps.Label != "sweep-stream" {
		t.Errorf("progress label = %q", ps.Label)
	}
	if ps.Total != sink.trailer.Total || ps.Rows != sink.trailer.Rows {
		t.Errorf("progress rows/total = %d/%d, trailer %d/%d",
			ps.Rows, ps.Total, sink.trailer.Rows, sink.trailer.Total)
	}
	if ps.Rows != int64(len(sink.rows)) {
		t.Errorf("progress rows = %d, sink got %d", ps.Rows, len(sink.rows))
	}
	if !ps.Done || !ps.Complete || ps.Reason != "" {
		t.Errorf("progress completion = %+v, trailer %+v", ps, sink.trailer)
	}
	if ps.Chunks == 0 {
		t.Error("no chunks recorded")
	}
}

func TestStreamGridProgressCancelConsistentWithTrailer(t *testing.T) {
	a := newAnalyzer(t)
	a.Workers = 4
	hs, sls, tps := smallGrid()
	evos := make([]hw.Evolution, 300)
	for i := range evos {
		evos[i] = hw.FlopVsBWScenario(1 + float64(i)*0.01)
	}
	p := armProgress(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterSink{n: 5, cancel: cancel}
	err := a.StreamEvolutionGridCtx(ctx, hs, sls, tps, 1, evos, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ps := p.Snapshot()
	tr := sink.trailer
	if ps.Rows != tr.Rows {
		t.Errorf("progress rows = %d, trailer rows = %d", ps.Rows, tr.Rows)
	}
	if !ps.Done || ps.Complete != tr.Complete || ps.Reason != tr.Reason {
		t.Errorf("progress verdict (done=%v complete=%v reason=%q) diverges from trailer %+v",
			ps.Done, ps.Complete, ps.Reason, tr)
	}
	if ps.Reason != "canceled" {
		t.Errorf("progress reason = %q, want canceled", ps.Reason)
	}
}

// TestStreamGridProgressWorkerInvariance: the tracker's final totals
// must not depend on worker count, mirroring the byte-determinism
// contract of the stream itself.
func TestStreamGridProgressWorkerInvariance(t *testing.T) {
	hs, sls, tps := smallGrid()
	evos := hw.PaperScenarios()
	var first telemetry.ProgressSnapshot
	for i, workers := range []int{1, 2, 5} {
		a := newAnalyzer(t)
		a.Workers = workers
		p := armProgress(t)
		var sink collectSink
		if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos, &sink); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ps := p.Snapshot()
		if i == 0 {
			first = ps
			continue
		}
		if ps.Rows != first.Rows || ps.Total != first.Total || ps.Chunks != first.Chunks ||
			ps.Complete != first.Complete {
			t.Errorf("workers=%d: totals (rows=%d total=%d chunks=%d) diverge from workers=1 (rows=%d total=%d chunks=%d)",
				workers, ps.Rows, ps.Total, ps.Chunks, first.Rows, first.Total, first.Chunks)
		}
	}
}

// TestMaterializedGridLeavesProgressAlone guards the /progress
// isolation of the collecting sweeps: the tracker belongs to the stream
// being served, so a materialized study grid run at the same time (a
// /v1/study request) must not move its rows, chunks or worker table.
func TestMaterializedGridLeavesProgressAlone(t *testing.T) {
	a := newAnalyzer(t)
	a.Workers = 4
	hs, sls, tps := smallGrid()
	p := armProgress(t)
	p.Begin("sweep-stream", 1000)
	p.SetWorkers(2)
	p.AddRows(7)
	p.ChunkDone()
	before := p.Snapshot()

	// An active collector makes the workers time their tasks, so a
	// leaked busy-time report would show in the worker table too.
	telemetry.Enable(telemetry.NewCollector())
	defer telemetry.Enable(nil)
	if _, err := a.SerializedEvolutionGridCtx(context.Background(), hs, sls, tps, 1, hw.PaperScenarios()); err != nil {
		t.Fatal(err)
	}
	after := p.Snapshot()
	if after.Label != before.Label || after.Total != before.Total || after.Rows != before.Rows ||
		after.Chunks != before.Chunks || after.Done {
		t.Errorf("tracker moved: before %+v, after %+v", before, after)
	}
	if len(after.Workers) != len(before.Workers) {
		t.Fatalf("worker table resized: %d -> %d entries", len(before.Workers), len(after.Workers))
	}
	for i := range after.Workers {
		if after.Workers[i].Busy != before.Workers[i].Busy {
			t.Errorf("worker %d busy moved: %v -> %v", i, before.Workers[i].Busy, after.Workers[i].Busy)
		}
	}
}
