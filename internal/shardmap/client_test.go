package shardmap

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twocs/internal/core"
	"twocs/internal/hw"
	"twocs/internal/model"
	"twocs/internal/serve"
	"twocs/internal/stream"
)

// sharedAnalyzer builds the standard BERT-baseline analyzer once for
// the whole test binary (it is concurrency-safe after construction).
var sharedAnalyzer = sync.OnceValues(func() (*core.Analyzer, error) {
	e, err := model.LookupZoo("BERT")
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(hw.MI210Cluster(1, 0), e.Config, 4)
})

// testSpec is the grid every fan-out test sweeps: 2×2×2 serialized
// tasks × 3 scenarios = 24 rows.
func testSpec() serve.SweepRequest {
	return serve.SweepRequest{GridSpec: serve.GridSpec{
		Hs: []int{1024, 2048}, SLs: []int{1024, 2048}, TPs: []int{4, 8},
		FlopVsBW: []float64{1, 2, 4},
	}}
}

// newReplica starts one twocsd-equivalent server, optionally wrapped in
// chaos middleware.
func newReplica(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	a, err := sharedAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.DefaultConfig()
	cfg.FlushEvery = 1 // stream row by row so cuts land mid-body
	h := serve.New(a, cfg, nil, nil).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// singleNodeArtifact is the reference: the same sweep POSTed to one
// replica as a full (unsharded) stream, bytes and all.
func singleNodeArtifact(t *testing.T) []byte {
	t.Helper()
	ts := newReplica(t, nil)
	c, err := NewCoordinator(Config{Replicas: []string{ts.URL}, ShardRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.Sweep(context.Background(), testSpec(), stream.NewNDJSON(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fanOnce(t *testing.T, cfg Config) ([]byte, *Result, error) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := c.Sweep(context.Background(), testSpec(), stream.NewNDJSON(&buf))
	return buf.Bytes(), res, err
}

// TestFanByteIdentity: at 1, 2 and 3 replicas and several shard sizes,
// the fan-out's assembled NDJSON artifact — rows and trailer — is
// byte-identical to a single node streaming the whole grid.
func TestFanByteIdentity(t *testing.T) {
	want := singleNodeArtifact(t)
	for _, nReplicas := range []int{1, 2, 3} {
		var urls []string
		for i := 0; i < nReplicas; i++ {
			urls = append(urls, newReplica(t, nil).URL)
		}
		for _, shardRows := range []int64{1, 5, 24, 100} {
			got, res, err := fanOnce(t, Config{Replicas: urls, ShardRows: shardRows})
			if err != nil {
				t.Fatalf("replicas=%d shardRows=%d: %v", nReplicas, shardRows, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("replicas=%d shardRows=%d: artifact differs from single-node", nReplicas, shardRows)
			}
			if !res.Complete || res.Rows != 24 || res.Total != 24 {
				t.Fatalf("replicas=%d shardRows=%d: result %+v", nReplicas, shardRows, res)
			}
		}
	}
}

// TestFanDigestInvariance: the merged digest bundle is identical at any
// replica count for a fixed shard plan — the plan (and so the merge
// order) depends on the grid, not the fleet.
func TestFanDigestInvariance(t *testing.T) {
	var results []*Result
	for _, nReplicas := range []int{1, 3} {
		var urls []string
		for i := 0; i < nReplicas; i++ {
			urls = append(urls, newReplica(t, nil).URL)
		}
		_, res, err := fanOnce(t, Config{Replicas: urls, ShardRows: 5, TopK: 7})
		if err != nil {
			t.Fatalf("replicas=%d: %v", nReplicas, err)
		}
		results = append(results, res)
	}
	a, b := results[0].Digests, results[1].Digests
	if !reflect.DeepEqual(a.TopK.Best(), b.TopK.Best()) {
		t.Fatal("top-K digests differ across replica counts")
	}
	if !reflect.DeepEqual(a.Pareto.Frontier(), b.Pareto.Frontier()) {
		t.Fatal("Pareto digests differ across replica counts")
	}
	if !reflect.DeepEqual(a.Marginals.Axes(), b.Marginals.Axes()) {
		t.Fatal("marginals digests differ across replica counts")
	}
}

// cutWriter forwards a response body but aborts the connection after n
// newlines — a replica dying mid-stream.
type cutWriter struct {
	http.ResponseWriter
	remaining int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	for i, by := range p {
		if by != '\n' {
			continue
		}
		if c.remaining--; c.remaining < 0 {
			_, _ = c.ResponseWriter.Write(p[:i])
			if f, ok := c.ResponseWriter.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
	}
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// cutSweeps aborts the first `times` sweep responses after `lines`
// NDJSON lines.
func cutSweeps(times int32, lines int) func(http.Handler) http.Handler {
	var left atomic.Int32
	left.Store(times)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && left.Add(-1) >= 0 {
				next.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: lines}, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestFanResumeAfterKill: a replica dying mid-shard is retired, the
// shard's remaining range resumes on the healthy replica from the
// delivered prefix, and the final artifact is still byte-identical.
func TestFanResumeAfterKill(t *testing.T) {
	want := singleNodeArtifact(t)
	chaos := newReplica(t, cutSweeps(1, 3)) // dies 3 rows into its first shard
	healthy := newReplica(t, nil)
	got, res, err := fanOnce(t, Config{
		Replicas:    []string{chaos.URL, healthy.URL},
		ShardRows:   8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fan with chaos replica: %v (result %+v)", err, res)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after mid-stream kill + resume differs from single-node")
	}
	if res.Retired != 1 {
		t.Fatalf("retired %d replicas, want 1", res.Retired)
	}
	if res.Retries == 0 {
		t.Fatal("no retries recorded despite a killed shard")
	}
}

// busyFirst rejects the first `times` requests to path with 429 and
// the given Retry-After header value.
func busyFirst(path string, times int32, retryAfter string) func(http.Handler) http.Handler {
	var left atomic.Int32
	left.Store(times)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == path && left.Add(-1) >= 0 {
				w.Header().Set("Retry-After", retryAfter)
				http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestFanBusyBackoff: 429s with Retry-After (delta-seconds and
// HTTP-date forms) back the replica off and retry on it; the sweep
// still completes byte-identically.
func TestFanBusyBackoff(t *testing.T) {
	want := singleNodeArtifact(t)
	for _, retryAfter := range []string{"0", time.Now().UTC().Format(http.TimeFormat)} {
		ts := newReplica(t, busyFirst("/v1/sweep", 2, retryAfter))
		got, res, err := fanOnce(t, Config{
			Replicas:    []string{ts.URL},
			ShardRows:   8,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("Retry-After %q: %v", retryAfter, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Retry-After %q: artifact differs", retryAfter)
		}
		if res.Retries < 2 {
			t.Fatalf("Retry-After %q: %d retries, want >= 2", retryAfter, res.Retries)
		}
		if res.Retired != 0 {
			t.Fatalf("Retry-After %q: busy replica was retired", retryAfter)
		}
	}
}

// TestFanBusyPlan: a fleet that turns /v1/plan away as busy is asked
// again after the backoff instead of failing the sweep, which then
// completes byte-identically.
func TestFanBusyPlan(t *testing.T) {
	want := singleNodeArtifact(t)
	busy := newReplica(t, busyFirst("/v1/plan", 2, "0"))
	alsoBusy := newReplica(t, busyFirst("/v1/plan", 2, "0"))
	got, _, err := fanOnce(t, Config{
		Replicas:    []string{busy.URL, alsoBusy.URL},
		ShardRows:   8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("busy plan: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after busy plan rounds differs from single-node")
	}
}

// TestFanAllDeadAborts: when every replica is unreachable the sweep
// aborts with a well-formed empty artifact — trailer present,
// incomplete, reason naming the failure.
func TestFanAllDeadAborts(t *testing.T) {
	live := newReplica(t, nil)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	c, err := NewCoordinator(Config{
		Replicas:    []string{deadURL},
		ShardRows:   8,
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Planning must survive dead replicas too, so plan against the live
	// one: a separate coordinator proves /v1/plan failover, then the
	// dead-fleet sweep proves the abort path.
	planC, err := NewCoordinator(Config{Replicas: []string{deadURL, live.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, total, err := planC.PlanTotal(context.Background(), testSpec()); err != nil || total != 24 {
		t.Fatalf("plan failover: total=%d err=%v", total, err)
	}

	var buf bytes.Buffer
	var counted stream.Discard
	res, err := c.Sweep(context.Background(), testSpec(), stream.Multi(stream.NewNDJSON(&buf), &counted))
	if err == nil {
		t.Fatalf("sweep against a dead fleet succeeded: %+v", res)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	p, perr := stream.ParseNDJSONLine(lines[len(lines)-1])
	if perr != nil || !p.IsTrailer {
		t.Fatalf("aborted artifact lacks a trailer: %q", lines[len(lines)-1])
	}
	if p.Trailer.Complete || p.Trailer.Reason == "" {
		t.Fatalf("aborted trailer %+v", p.Trailer)
	}
}

// TestRetryAfterDelay: both header forms parse; garbage does not.
func TestRetryAfterDelay(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		h    string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"3", 3 * time.Second, true},
		{" 10 ", 10 * time.Second, true},
		{"-5", 0, true},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"soon", 0, false},
	}
	for _, c := range cases {
		got, ok := retryAfterDelay(c.h, now)
		if ok != c.ok || got != c.want {
			t.Errorf("retryAfterDelay(%q) = (%v, %v), want (%v, %v)", c.h, got, ok, c.want, c.ok)
		}
	}
}

// TestPlanShapes: the planner covers [0,total) exactly with contiguous
// shards and defaults sanely.
func TestPlanShapes(t *testing.T) {
	if got := Plan(0, 10); got != nil {
		t.Fatalf("Plan(0) = %v", got)
	}
	for _, c := range []struct {
		total, shardRows int64
		want             int
	}{
		{24, 5, 5}, {24, 24, 1}, {24, 100, 1}, {24, 1, 24}, {1, 0, 1},
	} {
		shards := Plan(c.total, c.shardRows)
		if len(shards) != c.want {
			t.Fatalf("Plan(%d,%d) has %d shards, want %d", c.total, c.shardRows, len(shards), c.want)
		}
		var next int64
		for _, s := range shards {
			if s.Lo != next || s.Hi <= s.Lo {
				t.Fatalf("Plan(%d,%d): bad shard %+v at expected lo %d", c.total, c.shardRows, s, next)
			}
			next = s.Hi
		}
		if next != c.total {
			t.Fatalf("Plan(%d,%d) covers [0,%d)", c.total, c.shardRows, next)
		}
	}
}
