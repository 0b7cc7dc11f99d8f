package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinyOptions shrinks a workload to a few hundred rows or requests so a
// whole run takes well under a second.
func tinyOptions(t *testing.T, workload string, trace bool) *options {
	t.Helper()
	o, err := newOptions(workload, 7, 0.3, trace)
	if err != nil {
		t.Fatal(err)
	}
	if o.scenarios > 0 {
		o.scenarios = 3
	}
	o.setups = 2
	o.rate = 100
	if trace {
		o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	}
	return o
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, name, trace)
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m, got, unit)
				}
			}
			if !trace {
				continue
			}
			b, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var events []traceEvent
			if err := json.Unmarshal(b, &events); err != nil || len(events) < 2 {
				t.Errorf("%s: trace file holds %d events: %v", name, len(events), err)
			}
		}
	}
}

func TestGateFailsOnFlippedByte(t *testing.T) {
	o := tinyOptions(t, "stream-plain", false)
	o.flipAt = 100
	res, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want every sweep failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestRetriesCountInjected503(t *testing.T) {
	ctx := context.Background()
	o := tinyOptions(t, "fan-out", false)
	o.fail503 = 1
	o.seconds = time.Nanosecond // one sweep
	want, err := expected(ctx, gridKey{o.scenarios, false})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := setup(ctx, o, want, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	ops, err := w.measure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].failed {
		t.Fatalf("%d sweeps, first failed=%v (%v); a retried shard must still pass the gate", len(ops), ops[0].failed, ops[0].err)
	}
	e := w.(*sweepEnv)
	if e.sums.retries != 1 {
		t.Errorf("shardmap retries = %d, want the 1 injected 503", e.sums.retries)
	}
	if got := e.layers(nil)["shardmap.retries"]; got != 1 {
		t.Errorf("shardmap.retries metric = %v, want 1", got)
	}
}

func TestStudyMixDependsOnlyOnSeed(t *testing.T) {
	a, _ := newStudyMix(3, 200)
	b, _ := newStudyMix(3, 200)
	c, _ := newStudyMix(4, 200)
	same := func(x, y *studyMix) bool {
		if len(x.seq) != len(y.seq) {
			return false
		}
		for i := range x.seq {
			if string(x.specs[x.seq[i]].body) != string(y.specs[y.seq[i]].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("one seed drew two different mixes")
	}
	if same(a, c) {
		t.Error("two seeds drew the same mix")
	}
	hot := 0
	for _, i := range a.seq {
		if i < hotSpecs {
			hot++
		}
	}
	if share := float64(hot) / float64(len(a.seq)); share < 0.7 || share > 0.9 {
		t.Errorf("hot share %.2f, want about %.1f", share, hotShare)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "root", Start: 0, End: 100 * ms, Rows: map[string]time.Duration{"row": 10 * ms}},
		{ID: 2, Parent: 1, Layer: "client", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Layer: "client", Start: 40 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Layer: "handler", Start: 20 * ms, End: 70 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":    100*ms - 50*ms - 10*ms, // children cover [10,60)
		"row":     10 * ms,
		"client":  (40*ms - 30*ms) + 20*ms, // the handler covers [20,50) of span 2
		"handler": 50 * ms,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestGoldens checks the pinned goldens against the reference stream.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1.7M rows")
	}
	for key, want := range goldens {
		got, err := reference(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("golden %+v = %+v, reference gives %+v", key, want, got)
		}
	}
}
