package stream

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"twocs/internal/units"
)

// canceledRow builds a back-filled grid point the PR-4 convention
// produces on cancellation: coordinates intact, objectives NaN.
func canceledRow(index int64) Row {
	nan := math.NaN()
	return Row{
		Index: index, Evo: "2x", FlopVsBW: 2, H: 4096, SL: 2048, B: 1, TP: 16,
		IterTime: units.Seconds(nan), CommFrac: nan, MemBytes: units.Bytes(nan),
	}
}

func TestRowFinite(t *testing.T) {
	if !sampleRows()[0].Finite() {
		t.Fatal("finite row reported non-finite")
	}
	if canceledRow(0).Finite() {
		t.Fatal("NaN row reported finite")
	}
	inf := sampleRows()[0]
	inf.CommFrac = math.Inf(1)
	if inf.Finite() {
		t.Fatal("Inf row reported finite")
	}
}

// TestNDJSONCanceledRows: the regression this PR fixes — NaN objectives
// used to serialize as the literal `NaN`, which is not JSON. Canceled
// rows must emit null objectives, carry "canceled":true, keep their
// coordinates, and leave every line of the artifact valid JSON.
func TestNDJSONCanceledRows(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	rows := []Row{sampleRows()[0], canceledRow(1), sampleRows()[2]}
	rows[2].Index = 2
	for _, r := range rows {
		if err := s.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(Trailer{Rows: 3, Total: 3, Canceled: 1, Complete: false, Reason: "canceled"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 rows + trailer", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %s", i, line)
		}
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"iter_s", "comm_frac", "mem_bytes"} {
		if v, ok := got[k]; !ok || v != nil {
			t.Errorf("canceled row %s = %v, want null", k, v)
		}
	}
	if got["canceled"] != true {
		t.Errorf("canceled row lacks canceled:true: %v", got)
	}
	if got["h"].(float64) != 4096 || got["tp"].(float64) != 16 {
		t.Errorf("canceled row lost its coordinates: %v", got)
	}
	// Finite rows must not grow a canceled field.
	var finite map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &finite); err != nil {
		t.Fatal(err)
	}
	if _, ok := finite["canceled"]; ok {
		t.Errorf("finite row carries canceled field: %v", finite)
	}
	var trailer map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer["canceled"].(float64) != 1 || trailer["complete"] != false {
		t.Fatalf("bad trailer: %v", trailer)
	}
}

// TestNDJSONTrailerOmitsZeroCanceled: complete runs keep the trailer
// they always had — the canceled count only appears when nonzero, so
// existing consumers and goldens see identical bytes.
func TestNDJSONTrailerOmitsZeroCanceled(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	if err := s.Close(Trailer{Rows: 0, Total: 0, Complete: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "canceled") {
		t.Fatalf("zero-canceled trailer mentions canceled: %s", buf.String())
	}
}

// TestCSVCanceledRows: CSV has no null, so canceled objectives are
// empty fields — distinguishable from every real value — and the
// trailer counts them.
func TestCSVCanceledRows(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	if err := s.Emit(sampleRows()[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(canceledRow(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(Trailer{Rows: 2, Total: 4, Canceled: 1, Complete: false, Reason: "canceled"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "#trailer rows=2 total=4 canceled=1 complete=false reason=canceled\n") {
		t.Fatalf("trailer missing canceled count:\n%s", out)
	}
	body := strings.Join(strings.Split(out, "\n")[:3], "\n") + "\n"
	recs, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatalf("CSV with canceled rows does not parse: %v", err)
	}
	// Columns: index,evo,flopbw,h,sl,b,tp,iter_s,comm_frac,mem_bytes.
	canceled := recs[2]
	for _, col := range []int{7, 8, 9} {
		if canceled[col] != "" {
			t.Errorf("canceled row column %d = %q, want empty", col, canceled[col])
		}
	}
	if canceled[3] != "4096" || canceled[6] != "16" {
		t.Errorf("canceled row lost coordinates: %v", canceled)
	}
	finite := recs[1]
	for _, col := range []int{7, 8, 9} {
		if finite[col] == "" {
			t.Errorf("finite row column %d empty", col)
		}
	}
}

// withCanceled interleaves n canceled rows into a finite grid at
// deterministic pseudo-random positions, reindexing so Index stays the
// emit order.
func withCanceled(rng *rand.Rand, rows []Row, n int) []Row {
	out := make([]Row, 0, len(rows)+n)
	out = append(out, rows...)
	for i := 0; i < n; i++ {
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append([]Row{canceledRow(0)}, out[at:]...)...)
	}
	for i := range out {
		out[i].Index = int64(i)
	}
	return out
}

// finiteOnly is the oracle's view: the same stream with canceled rows
// never emitted (original indices preserved).
func finiteOnly(rows []Row) []Row {
	var out []Row
	for _, r := range rows {
		if r.Finite() {
			out = append(out, r)
		}
	}
	return out
}

// TestReducersSkipCanceledRows: feeding a grid with interleaved
// canceled rows must produce exactly the digests of the finite-only
// stream — NaN rows neither join the frontier (dominance is all-false
// on NaN, so they used to), nor displace TopK rows via the index
// tie-break, nor drag Marginals means — and each reducer counts what it
// skipped.
func TestReducersSkipCanceledRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rows := withCanceled(rng, randomGrid(rng, rng.Intn(150)+1), rng.Intn(20)+1)
		finite := finiteOnly(rows)
		var nCanceled = int64(len(rows) - len(finite))

		p, pOracle := NewPareto(), NewPareto()
		tk, err := NewTopK(5)
		if err != nil {
			t.Fatal(err)
		}
		tkOracle, _ := NewTopK(5)
		m, mOracle := NewMarginals(), NewMarginals()
		for _, r := range rows {
			for _, s := range []Sink{p, tk, m} {
				if err := s.Emit(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, r := range finite {
			for _, s := range []Sink{pOracle, tkOracle, mOracle} {
				if err := s.Emit(r); err != nil {
					t.Fatal(err)
				}
			}
		}

		label := fmt.Sprintf("trial %d", trial)
		diffRows(t, label+" frontier", p.Frontier(), pOracle.Frontier())
		diffRows(t, label+" topk", tk.Best(), tkOracle.Best())
		got, want := m.Axes(), mOracle.Axes()
		if len(got) != len(want) {
			t.Fatalf("%s: marginals axes %d != %d", label, len(got), len(want))
		}
		for i := range got {
			if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
				t.Fatalf("%s: axis %s diverges:\n got  %+v\n want %+v",
					label, got[i].Axis, got[i], want[i])
			}
		}
		if p.Canceled() != nCanceled || tk.Canceled() != nCanceled || m.Canceled() != nCanceled {
			t.Fatalf("%s: Canceled() = %d/%d/%d, want %d",
				label, p.Canceled(), tk.Canceled(), m.Canceled(), nCanceled)
		}
		if pOracle.Canceled() != 0 {
			t.Fatalf("%s: oracle counted canceled rows", label)
		}
	}
}

// TestParetoFrontierExcludesNaNEvenAlone: a stream of only canceled
// rows yields an empty frontier, not a frontier of unreachable points.
func TestParetoFrontierExcludesNaNEvenAlone(t *testing.T) {
	p := NewPareto()
	tk, _ := NewTopK(3)
	m := NewMarginals()
	for i := int64(0); i < 4; i++ {
		r := canceledRow(i)
		for _, s := range []Sink{p, tk, m} {
			if err := s.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.Size() != 0 || len(tk.Best()) != 0 {
		t.Fatalf("canceled-only stream produced digests: frontier=%d topk=%d",
			p.Size(), len(tk.Best()))
	}
	for _, ax := range m.Axes() {
		if len(ax.Values) != 0 {
			t.Fatalf("canceled-only stream produced marginals for axis %s", ax.Axis)
		}
	}
}

// TestAppendJSONFloat pins the serializer the NDJSON rows ride on.
func TestAppendJSONFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.25, "0.25"},
		{0, "0"},
		{math.NaN(), "null"},
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
	}
	for _, c := range cases {
		if got := string(appendJSONFloat(nil, c.v)); got != c.want {
			t.Errorf("appendJSONFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
