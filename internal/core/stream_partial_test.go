package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"twocs/internal/hw"
	"twocs/internal/parallel"
	"twocs/internal/stream"
)

// manyEvos builds enough evolution scenarios over the small task grid
// that a mid-stream cancel always leaves unclaimed points to back-fill.
func manyEvos(n int) []hw.Evolution {
	evos := make([]hw.Evolution, n)
	for i := range evos {
		evos[i] = hw.FlopVsBWScenario(1 + float64(i)*0.01)
	}
	return evos
}

// TestStreamGridPartialCancelBackfills: the best-effort stream extends
// the PR-4 materializing contract — after cancellation every
// never-computed grid point is still emitted with its coordinates and
// NaN objectives, so the artifact keeps the full grid shape and the
// trailer counts the back-fill.
func TestStreamGridPartialCancelBackfills(t *testing.T) {
	a := newAnalyzer(t)
	a.Workers = 4
	hs, sls, tps := smallGrid()
	b := 1
	evos := manyEvos(300)

	// Golden coordinates from a complete run.
	var golden collectSink
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, b, evos, &golden); err != nil {
		t.Fatalf("complete run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterSink{n: 5, cancel: cancel}
	err := a.StreamEvolutionGridPartialCtx(ctx, hs, sls, tps, b, evos, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := int64(len(golden.rows))
	tr := sink.trailer
	if int64(len(sink.rows)) != total {
		t.Fatalf("partial stream emitted %d rows, want full grid shape %d", len(sink.rows), total)
	}
	if tr.Rows != total || tr.Total != total {
		t.Fatalf("trailer rows=%d total=%d, want both %d", tr.Rows, tr.Total, total)
	}
	if tr.Complete || tr.Reason != "canceled" {
		t.Fatalf("bad trailer verdict: %+v", tr)
	}
	if tr.Canceled == 0 || tr.Canceled >= total {
		t.Fatalf("trailer canceled=%d, want in (0, %d)", tr.Canceled, total)
	}
	var counted int64
	for i, r := range sink.rows {
		if r.Index != int64(i) {
			t.Fatalf("row %d carries index %d", i, r.Index)
		}
		g := golden.rows[i]
		if r.Evo != g.Evo || r.H != g.H || r.SL != g.SL || r.B != g.B || r.TP != g.TP {
			t.Fatalf("row %d coordinates diverged from complete run:\n got  %+v\n want %+v", i, r, g)
		}
		if !r.Finite() {
			counted++
		}
	}
	if counted != tr.Canceled {
		t.Fatalf("stream has %d non-finite rows, trailer says %d", counted, tr.Canceled)
	}
	// The computed prefix and the back-filled suffix are contiguous: once
	// the first canceled row appears, everything after it is canceled.
	first := -1
	for i, r := range sink.rows {
		if !r.Finite() {
			first = i
			break
		}
	}
	for i := first; i >= 0 && i < len(sink.rows); i++ {
		if sink.rows[i].Finite() {
			t.Fatalf("finite row %d after first canceled row %d", i, first)
		}
	}
}

// cancelForwardSink forwards to an inner sink and cancels after n rows
// — the PR-4 cancel harness shaped around a real serializer.
type cancelForwardSink struct {
	inner  stream.Sink
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelForwardSink) Emit(r stream.Row) error {
	if err := c.inner.Emit(r); err != nil {
		return err
	}
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	return nil
}

func (c *cancelForwardSink) Close(tr stream.Trailer) error { return c.inner.Close(tr) }

// TestStreamGridPartialNDJSONAllValid is the end-to-end regression for
// the NaN bug: a canceled best-effort sweep serialized as NDJSON must
// produce zero invalid-JSON lines (NaN used to leak as a bare literal),
// with the canceled-row count in the lines agreeing with the trailer,
// and attached reducers keeping canceled rows out of their digests.
//
// The cancel fires inside the first chunk's emission. Cancellation
// never abandons a claimed chunk and each worker holds one chunk until
// it is emitted, so with fewer workers than chunks at least one chunk is
// still unclaimed when the cancel lands: the stream is canceled, not
// complete, however the workers are scheduled.
func TestStreamGridPartialNDJSONAllValid(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	evos := manyEvos(200)
	total, err := GridRowCount(hs, sls, tps, 1, len(evos))
	if err != nil {
		t.Fatal(err)
	}
	chunks := int((total + parallel.DefaultStreamChunk - 1) / parallel.DefaultStreamChunk)
	if chunks < 3 {
		t.Fatalf("grid has %d chunks; need at least 3 for a parallel partial stream", chunks)
	}
	a.Workers = chunks - 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	pareto := stream.NewPareto()
	topk, err := stream.NewTopK(5)
	if err != nil {
		t.Fatal(err)
	}
	sink := &cancelForwardSink{
		inner:  stream.Multi(stream.NewNDJSON(&buf), pareto, topk),
		n:      5,
		cancel: cancel,
	}
	if err := a.StreamEvolutionGridPartialCtx(ctx, hs, sls, tps, 1, evos, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	var lines, canceledLines int64
	var trailer struct {
		Trailer  bool   `json:"trailer"`
		Rows     int64  `json:"rows"`
		Total    int64  `json:"total"`
		Canceled int64  `json:"canceled"`
		Complete bool   `json:"complete"`
		Reason   string `json:"reason"`
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !json.Valid(line) {
			t.Fatalf("invalid JSON line: %s", line)
		}
		if strings.Contains(string(line), `"trailer":true`) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines++
		if strings.Contains(string(line), `"canceled":true`) {
			canceledLines++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !trailer.Trailer {
		t.Fatal("stream ended without a trailer")
	}
	if trailer.Complete || trailer.Reason != "canceled" {
		t.Fatalf("bad trailer verdict: %+v", trailer)
	}
	if lines != trailer.Rows || lines != trailer.Total {
		t.Fatalf("emitted %d data lines, trailer rows=%d total=%d", lines, trailer.Rows, trailer.Total)
	}
	if canceledLines != trailer.Canceled || canceledLines == 0 {
		t.Fatalf("%d canceled lines, trailer canceled=%d", canceledLines, trailer.Canceled)
	}
	if canceledLines == lines {
		t.Fatalf("all %d lines canceled; the stream must keep a finite prefix", lines)
	}
	// Digests exclude every canceled row.
	if pareto.Canceled() != canceledLines || topk.Canceled() != canceledLines {
		t.Fatalf("reducers skipped %d/%d rows, want %d",
			pareto.Canceled(), topk.Canceled(), canceledLines)
	}
	for _, r := range pareto.Frontier() {
		if !r.Finite() {
			t.Fatalf("canceled row on the Pareto frontier: %+v", r)
		}
	}
	for _, r := range topk.Best() {
		if !r.Finite() {
			t.Fatalf("canceled row in the top-K digest: %+v", r)
		}
	}
}

// TestStreamGridPartialCompleteMatchesStrict: on an uncanceled run the
// best-effort variant is byte-identical to the strict one — the partial
// contract only changes what happens after failure.
func TestStreamGridPartialCompleteMatchesStrict(t *testing.T) {
	a := newAnalyzer(t)
	hs, sls, tps := smallGrid()
	evos := hw.PaperScenarios()
	var strict, partial bytes.Buffer
	if err := a.StreamEvolutionGridCtx(context.Background(), hs, sls, tps, 1, evos,
		stream.NewNDJSON(&strict)); err != nil {
		t.Fatal(err)
	}
	if err := a.StreamEvolutionGridPartialCtx(context.Background(), hs, sls, tps, 1, evos,
		stream.NewNDJSON(&partial)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(strict.Bytes(), partial.Bytes()) {
		t.Fatal("partial variant diverges from strict on a complete run")
	}
}
