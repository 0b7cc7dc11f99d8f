// Command perfbench is the repository's benchmark. It drives the public
// entry points of core, stream, serve and shardmap in-process and
// reports end-to-end metrics (untraced) or per-layer metrics (traced),
// after checking every output against the correctness gate. METRICS.md
// describes the workloads, metrics and load shape.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
)

// workloads maps each workload to its sweep size in scenarios (0 for
// study-mix, which draws its own specs).
var workloads = map[string]int{
	"stream-plain":   6411,
	"stream-digests": 3200,
	"fan-out":        1600,
	"study-mix":      0,
}

// options is one run's configuration. The flags set the first four;
// the rest are fixed for the benchmark and shrunk by the tests.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	scenarios int     // sweep grid size
	setups    int     // set-ups per run; setup_s is their median
	setupExe  string  // binary to time each set-up in a fresh process ("" times them in this one)
	rate      float64 // study-mix requests per second
	traceOut  string  // Chrome trace path of a traced run ("" skips it)
	flipAt    int64   // fault: corrupt this artifact byte (1-based)
	fail503   int     // fault: replica 0 answers this many sweeps with 503
}

// studyRate is the study-mix offered load: about a fifth of what a
// 2-vCPU host saturates at, low enough that a phase of host contention
// does not tip the server into queueing.
const studyRate = 1000

// endToEnd and perLayer name every metric an untraced and a traced run
// print, with its unit; BENCHMARK.json lists the same.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"first_row_ms", "ms"},
	{"cpu_us_per_row", "us"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"latency_p99_ms", "ms"},
	{"core.price.ns_per_row", "ns"},
	{"core.stream.sink_wait_share", "share"},
	{"core.study_grid.p50_ms", "ms"},
	{"stream.ndjson.emit.ns_per_row", "ns"},
	{"stream.ndjson.bytes_per_row", "B"},
	{"stream.pareto.emit.ns_per_row", "ns"},
	{"stream.pareto.frontier_rows", "count"},
	{"stream.topk.emit.ns_per_row", "ns"},
	{"stream.marginals.emit.ns_per_row", "ns"},
	{"stream.decode.ns_per_row", "ns"},
	{"serve.sweep.busy_share", "share"},
	{"serve.sweep.ns_per_row", "ns"},
	{"serve.study.hit_ratio", "share"},
	{"serve.study.hit.p50_ms", "ms"},
	{"serve.study.miss.p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"shardmap.plan_ms", "ms"},
	{"shardmap.emit.ns_per_row", "ns"},
	{"shardmap.sink_wait_share", "share"},
	{"shardmap.retries", "count"},
	{"shardmap.retired", "count"},
	{"runtime.alloc_bytes_per_row", "B"},
	{"loadgen.late.p99_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"failed_share", "share"},
	{"self.core.stream.ms_per_op", "ms"},
	{"self.stream.ndjson.emit.ms_per_op", "ms"},
	{"self.stream.pareto.emit.ms_per_op", "ms"},
	{"self.stream.topk.emit.ms_per_op", "ms"},
	{"self.stream.marginals.emit.ms_per_op", "ms"},
	{"self.shardmap.sweep.ms_per_op", "ms"},
	{"self.shardmap.emit.ms_per_op", "ms"},
	{"self.http.client.plan.ms_per_op", "ms"},
	{"self.http.client.sweep.ms_per_op", "ms"},
	{"self.serve.plan.ms_per_op", "ms"},
	{"self.serve.sweep.ms_per_op", "ms"},
	{"self.loadgen.study.ms_per_op", "ms"},
	{"self.serve.study.ms_per_op", "ms"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opStat is one timed operation: a whole sweep, or one study request.
// lat and first run from the call (sweeps) or the due time (studies) to
// completion and to the first row or response header.
type opStat struct {
	lat, first     time.Duration
	rows           int64
	traced, failed bool
	// warm marks the untimed warm-up sweep, which counts only as an
	// attempt; probe marks a first-row probe, which only times first.
	warm, probe bool
	err         error
}

// workload is a set-up workload: warm runs before the timed window
// (warm-up and probes), measure runs the window, verify any checks that
// run after it, layers the per-layer metrics of a traced run.
type workload interface {
	warm(ctx context.Context) ([]opStat, error)
	measure(ctx context.Context) ([]opStat, error)
	verify(ctx context.Context) (failed int, err error)
	layers(spans []span) map[string]float64
	close()
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "stream-plain, stream-digests, fan-out or study-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	only := fs.Bool("setup-only", false, "set up once in this process, print the time taken and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o, err := newOptions(*name, *seed, *seconds, *trace == 1)
	if err == nil && *only {
		err = setupOnly(o)
		if err == nil {
			return
		}
	}
	if err == nil {
		o.setupExe, err = os.Executable()
	}
	if err == nil && o.trace {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}
	var res *result
	if err == nil {
		res, err = run(context.Background(), o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	summarize(os.Stderr, res)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
}

func newOptions(name string, seed int64, seconds float64, trace bool) (*options, error) {
	scen, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	return &options{
		workload: name, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), trace: trace,
		scenarios: scen, setups: 7, rate: studyRate,
	}, nil
}

// run times o.setups set-ups, measures one set-up workload for
// o.seconds, gates the outputs and computes the metrics.
func run(ctx context.Context, o *options) (*result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var want golden
	var mix *studyMix
	var err error
	if o.workload == "study-mix" {
		mix, err = newStudyMix(o.seed, int(o.rate*o.seconds.Seconds()))
	} else {
		want, err = expected(ctx, gridKey{o.scenarios, o.workload == "stream-digests"})
	}
	if err != nil {
		return nil, err
	}

	var w workload
	setups := make([]time.Duration, o.setups)
	for i := range setups {
		if o.setupExe != "" {
			setups[i], err = childSetup(ctx, o)
		} else {
			if w != nil {
				w.close()
			}
			w, setups[i], err = setup(ctx, o, want, mix, tr)
		}
		if err != nil {
			return nil, err
		}
	}
	if w == nil {
		if w, _, err = setup(ctx, o, want, mix, tr); err != nil {
			return nil, err
		}
	}
	defer w.close()

	pre, err := w.warm(ctx)
	if err != nil {
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0 := cpuTime()
	t0 := time.Now()
	ops, err := w.measure(ctx)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&mem1)
	if err != nil {
		return nil, err
	}
	vfailed, verr := w.verify(ctx)

	res := &result{Failed: int64(vfailed), Metrics: map[string]metric{}}
	var rows int64
	var lats, firsts []time.Duration
	var rates []float64
	for _, op := range append(pre, ops...) {
		if op.probe {
			firsts = append(firsts, op.first)
			continue
		}
		res.Attempted++
		if op.failed {
			res.Failed++
			if verr == nil {
				verr = op.err
			}
		}
		if op.warm {
			continue
		}
		rows += op.rows
		lats = append(lats, op.lat)
		firsts = append(firsts, op.first)
		if op.lat > 0 {
			rates = append(rates, float64(op.rows)/op.lat.Seconds())
		}
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: gate:", verr)
	}

	if !o.trace {
		rowRate := pct(rates, 50)
		if mix != nil {
			rowRate = float64(rows) / wall.Seconds()
		}
		vals := map[string]float64{
			"setup_s":        pct(setups, 50).Seconds(),
			"rows_per_s":     rowRate,
			"first_row_ms":   ms(pct(firsts, 50)),
			"cpu_us_per_row": float64(cpu) / float64(time.Microsecond) / float64(max(rows, 1)),
			"cpu_ms_per_op":  ms(cpu) / float64(max(len(lats), 1)),
			"peak_rss_mb":    peakRSS(),
			"latency_p50_ms": ms(pct(lats, 50)),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return res, nil
	}

	spans := tr.snapshot()
	vals := w.layers(spans)
	if vals["core.price.ns_per_row"], err = pricingProbe(ctx, o); err != nil {
		return nil, err
	}
	vals["runtime.alloc_bytes_per_row"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(max(rows, 1))
	vals["failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	var plain, traced []time.Duration
	for _, op := range ops {
		if op.traced {
			traced = append(traced, op.lat)
		} else {
			plain = append(plain, op.lat)
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		vals["trace.overhead_share"] = float64(pct(traced, 50))/float64(pct(plain, 50)) - 1
	}
	// The tail is host jitter more than program behaviour on a small
	// shared VM, too unsteady to bound run to run; it is reported here,
	// over the untraced ops.
	vals["latency_p99_ms"] = ms(pct(plain, 99))
	for layer, d := range selfTimes(spans) {
		vals["self."+layer+".ms_per_op"] = ms(d) / float64(max(len(traced), 1))
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	if o.traceOut != "" {
		if err := writeTraceFile(o.traceOut, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setup builds the workload and returns it with the time that took:
// from building the first analyzer until the first timed call could
// start.
func setup(ctx context.Context, o *options, want golden, mix *studyMix, tr *tracer) (workload, time.Duration, error) {
	t0 := time.Now()
	var w workload
	var err error
	if mix != nil {
		w, err = newStudyEnv(ctx, o, mix, tr)
	} else {
		w, err = newSweepEnv(ctx, o, want, tr)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return w, time.Since(t0), nil
}

// childSetup times one cold set-up in a fresh process of this binary,
// so that no process-wide cache a previous set-up filled shortens it.
func childSetup(ctx context.Context, o *options) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, o.setupExe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup process: %w", err)
	}
	return time.ParseDuration(strings.TrimSpace(string(out)))
}

// setupOnly is the child side of childSetup: set up once, print the
// time taken, tear down.
func setupOnly(o *options) error {
	var mix *studyMix
	if o.workload == "study-mix" {
		mix = &studyMix{}
	}
	w, d, err := setup(context.Background(), o, golden{}, mix, nil)
	if err != nil {
		return err
	}
	w.close()
	_, err = fmt.Println(d)
	return err
}

// expected returns the golden values of a sweep grid: pinned for the
// benchmark's own grids, computed by the reference stream otherwise.
func expected(ctx context.Context, key gridKey) (golden, error) {
	if g, ok := goldens[key]; ok {
		return g, nil
	}
	return reference(ctx, key)
}

// pricingProbe times sequential Analyzer.SerializedFraction calls over
// a seeded sample of grid points on a warmed analyzer: the per-row
// pricing cost every workload pays. It returns ns per row, the median
// of five passes.
func pricingProbe(ctx context.Context, o *options) (float64, error) {
	an, err := newAnalyzer()
	if err != nil {
		return 0, err
	}
	if _, err := an.SerializedEvolutionGridCtx(ctx, core.Table3Hs(), core.Table3SLs(), core.Table3TPs(), 1,
		evolutions([]float64{1})); err != nil {
		return 0, err
	}
	type point struct {
		cfg model.Config
		tp  int
		evo hw.Evolution
	}
	rng := rand.New(rand.NewSource(o.seed))
	evos := evolutions(ratios(64))
	var shapes []point
	for _, h := range core.Table3Hs() {
		for _, sl := range core.Table3SLs() {
			cfg, err := core.FutureConfig(h, sl, 1)
			if err != nil {
				return 0, err
			}
			for _, tp := range core.Table3TPs() {
				if cfg.TPDivides(tp) {
					shapes = append(shapes, point{cfg: cfg, tp: tp})
				}
			}
		}
	}
	sample := make([]point, 4096)
	for i := range sample {
		sample[i] = shapes[rng.Intn(len(shapes))]
		sample[i].evo = evos[rng.Intn(len(evos))]
	}
	passes := make([]time.Duration, 5)
	for i := range passes {
		t0 := time.Now()
		for _, p := range sample {
			if _, err := an.SerializedFraction(p.cfg, p.tp, p.evo); err != nil {
				return 0, err
			}
		}
		passes[i] = time.Since(t0)
	}
	return float64(pct(passes, 50)) / float64(len(sample)), nil
}

func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pct returns the p-th percentile by nearest rank (p=50 is the median),
// or 0 for no samples.
func pct[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(float64(len(s))*p/100+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's maximum resident set size in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// summarize prints the metrics as a table for a reader.
func summarize(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}
