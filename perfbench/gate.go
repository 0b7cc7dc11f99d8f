package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/stream"
)

// This file is the correctness gate: every sweep artifact is checked
// byte for byte against the local stream path's checksum, every trailer
// against the grid's row count, and the digests against their own
// checksum. A failed check counts the operation as failed and marks the
// run incorrect.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcTee checksums and counts every byte on its way to w. keep > 0
// retains the first keep bytes (the traced run decodes them again);
// flipAt > 0 corrupts the byte at that offset, the gate's own fault
// case.
type crcTee struct {
	w      io.Writer
	crc    uint32
	n      int64
	keep   int
	kept   []byte
	flipAt int64
}

func (t *crcTee) Write(p []byte) (int, error) {
	if t.flipAt > 0 && t.flipAt > t.n && t.flipAt <= t.n+int64(len(p)) {
		q := append([]byte(nil), p...)
		q[t.flipAt-t.n-1] ^= 0x20
		p = q
	}
	t.crc = crc32.Update(t.crc, castagnoli, p)
	t.n += int64(len(p))
	if room := t.keep - len(t.kept); room > 0 {
		t.kept = append(t.kept, p[:min(room, len(p))]...)
	}
	return t.w.Write(p)
}

// capture is the sink child that observes what the consumer saw: when
// the stream started and its first row arrived, the row count, and the
// trailer.
type capture struct {
	start, first time.Time
	rows         int64
	trailer      *stream.Trailer
}

func newCapture() *capture {
	c := &capture{}
	c.begin()
	return c
}

// begin marks the start of the stream.
func (c *capture) begin() { c.start = time.Now() }

func (c *capture) Emit(stream.Row) error {
	if c.rows == 0 {
		c.first = time.Now()
	}
	c.rows++
	return nil
}

func (c *capture) Close(t stream.Trailer) error {
	c.trailer = &t
	return nil
}

// golden is what a correct sweep of one grid produces: the row count,
// the NDJSON artifact's size and CRC-32C, and (for the digest workload)
// the Pareto frontier size and a CRC-32C over all three digests.
type golden struct {
	Rows, Bytes  int64
	CRC          uint32
	FrontierRows int
	DigestCRC    uint32
}

// goldens pins the local stream path's output for the grids the
// workloads use, keyed by scenario count and whether digests are on.
// The values come from a sequential StreamEvolutionGridCtx; a change
// that alters any simulated output fails the gate.
var goldens = map[gridKey]golden{
	{6411, false}: {Rows: 1000116, Bytes: 199962376, CRC: 0x60f0bc89},
	{3200, true}:  {Rows: 499200, Bytes: 99765848, CRC: 0xd7732ee6, FrontierRows: 16222, DigestCRC: 0xec0a94dc},
	{1600, false}: {Rows: 249600, Bytes: 49813081, CRC: 0x81b5a7c0},
}

type gridKey struct {
	scenarios int
	digests   bool
}

// ratios spaces n flop-vs-bw ratios evenly over [1, 10], the
// `-scenarios n -flopbw-max 10` grid family.
func ratios(n int) []float64 {
	if n == 1 {
		return []float64{10}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 + 9*float64(i)/float64(n-1)
	}
	return out
}

func evolutions(rs []float64) []hw.Evolution {
	evos := make([]hw.Evolution, len(rs))
	for i, r := range rs {
		evos[i] = hw.RatioScenario(r)
	}
	return evos
}

// digestSet is the reducer bundle the digest workload attaches.
type digestSet struct {
	topk      *stream.TopK
	pareto    *stream.Pareto
	marginals *stream.Marginals
}

func newDigestSet() *digestSet {
	tk, _ := stream.NewTopK(10) // k is a positive constant
	return &digestSet{topk: tk, pareto: stream.NewPareto(), marginals: stream.NewMarginals()}
}

// checksum folds the three digests into one CRC-32C: the top-K rows and
// the frontier as NDJSON, the marginals as JSON.
func (d *digestSet) checksum() (uint32, error) {
	marg, err := json.Marshal(d.marginals.Axes())
	if err != nil {
		return 0, err
	}
	tee := &crcTee{w: io.Discard}
	for _, rows := range [][]stream.Row{d.topk.Best(), d.pareto.Frontier()} {
		if err := writeRows(tee, rows); err != nil {
			return 0, err
		}
	}
	_, _ = tee.Write(marg) // writes to io.Discard cannot fail
	return tee.crc, nil
}

// writeRows writes rows and a complete trailer to w as NDJSON.
func writeRows(w io.Writer, rows []stream.Row) error {
	nd := stream.NewNDJSON(w)
	var err error
	for _, r := range rows {
		if err = nd.Emit(r); err != nil {
			break
		}
	}
	n := int64(len(rows))
	if cerr := nd.Close(stream.Trailer{Rows: n, Total: n, Complete: true}); err == nil {
		err = cerr
	}
	return err
}

// reference streams the grid once through a sequential analyzer and
// returns its golden values — how the goldens table was made, and the
// gate for grid sizes the table does not hold.
func reference(ctx context.Context, key gridKey) (golden, error) {
	a, err := newAnalyzer()
	if err != nil {
		return golden{}, err
	}
	a.Workers = 1
	tee := &crcTee{w: io.Discard}
	c := newCapture()
	sinks := []stream.Sink{stream.NewNDJSON(tee), c}
	var ds *digestSet
	if key.digests {
		ds = newDigestSet()
		sinks = append(sinks, ds.topk, ds.pareto, ds.marginals)
	}
	if err := a.StreamEvolutionGridCtx(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1,
		evolutions(ratios(key.scenarios)), stream.Multi(sinks...)); err != nil {
		return golden{}, fmt.Errorf("reference stream: %w", err)
	}
	g := golden{Rows: c.rows, Bytes: tee.n, CRC: tee.crc}
	if ds != nil {
		g.FrontierRows = ds.pareto.Size()
		if g.DigestCRC, err = ds.checksum(); err != nil {
			return golden{}, err
		}
	}
	return g, nil
}

// gridRows is core.GridRowCount over the Table-3 axes at B=1.
func gridRows(scenarios int) (int64, error) {
	return core.GridRowCount(core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1, scenarios)
}

// checkSweep compares one sweep's observed output with the golden
// values and returns the first mismatch.
func checkSweep(want golden, rowsWant int64, c *capture, tee *crcTee, ds *digestSet) error {
	switch {
	case c.trailer == nil:
		return fmt.Errorf("sink never closed")
	case !c.trailer.Complete || c.trailer.Rows != rowsWant || c.rows != rowsWant:
		return fmt.Errorf("trailer %+v, sink saw %d rows, grid has %d", *c.trailer, c.rows, rowsWant)
	case tee.n != want.Bytes || tee.crc != want.CRC:
		return fmt.Errorf("artifact %d bytes crc32c %08x, want %d bytes %08x", tee.n, tee.crc, want.Bytes, want.CRC)
	}
	if ds == nil {
		return nil
	}
	if n := ds.pareto.Size(); n != want.FrontierRows {
		return fmt.Errorf("pareto frontier %d rows, want %d", n, want.FrontierRows)
	}
	sum, err := ds.checksum()
	if err != nil {
		return err
	}
	if sum != want.DigestCRC {
		return fmt.Errorf("digest crc32c %08x, want %08x", sum, want.DigestCRC)
	}
	return nil
}
