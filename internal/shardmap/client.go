package shardmap

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twocs/internal/parallel"
	"twocs/internal/serve"
	"twocs/internal/stream"
	"twocs/internal/telemetry"
)

// Config shapes a fan-out coordinator. Replicas is required; zero
// values elsewhere take the defaults documented per field.
type Config struct {
	// Replicas lists the twocsd base URLs ("http://host:7077") the
	// sweep fans out over. One worker runs per replica.
	Replicas []string
	// ShardRows is the planner's shard size (<= 0: DefaultShardRows).
	ShardRows int64
	// MaxAttempts bounds how many replica attempts one shard may
	// consume before the sweep aborts (<= 0: 4). Resumed attempts
	// count: a flaky fleet spends the budget, a healthy one never does.
	// It also bounds the rounds the plan request makes over a busy
	// fleet.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the per-attempt exponential
	// backoff a busy replica sits out (<= 0: 100ms and 5s). A parsed
	// Retry-After wins when it asks for longer.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// TopK sizes the merged digest bundle (<= 0: 10).
	TopK int
	// Client issues the HTTP requests (nil: http.DefaultClient).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ShardRows <= 0 {
		c.ShardRows = DefaultShardRows
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// Result summarizes a fan-out sweep: what the sink received, how the
// fleet behaved, and the digest bundle merged in shard order.
type Result struct {
	// Rows is the count of data rows emitted to the sink (the ordered
	// prefix on an aborted run); Total the planned grid size.
	Rows, Total int64
	// Complete mirrors the synthesized trailer.
	Complete bool
	Reason   string
	// Shards is the plan size; Retries counts re-dispatched attempts
	// beyond each shard's first; Retired counts replicas marked dead.
	Shards  int
	Retries int64
	Retired int
	// Digests is the shard-order merge of the per-shard reducer
	// digests — deterministic for a fixed (total, ShardRows) plan at
	// any replica count.
	Digests *Digests
}

// replica is one twocsd base URL plus its gate state. The notBefore
// stamp implements backoff: the replica stays in the rotation but a
// worker that draws it sleeps out the remaining penalty first.
// Synchronization is by ownership transfer through the pool channel —
// a replica's fields are only touched by the worker holding it.
type replica struct {
	idx       int
	base      string
	notBefore time.Time
}

// Coordinator fans streaming sweeps out over a fixed replica fleet.
// Create one per sweep invocation; it is not reusable.
type Coordinator struct {
	cfg Config
	col *telemetry.Collector

	pool    chan *replica
	healthy atomic.Int64
	// allDead closes when the last replica retires — the signal that
	// unblocks workers waiting on an empty pool.
	allDead  chan struct{}
	deadOnce sync.Once

	retries atomic.Int64
	retired atomic.Int64
}

// NewCoordinator validates cfg and builds the replica pool.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("shardmap: no replicas")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		col:     telemetry.Active(),
		pool:    make(chan *replica, len(cfg.Replicas)),
		allDead: make(chan struct{}),
	}
	for i, base := range cfg.Replicas {
		c.pool <- &replica{idx: i, base: strings.TrimRight(base, "/")}
	}
	c.healthy.Store(int64(len(cfg.Replicas)))
	return c, nil
}

// errAllReplicasDead aborts a sweep when the fleet is gone.
var errAllReplicasDead = errors.New("shardmap: all replicas dead")

// acquire draws a replica from the pool, sleeping out its backoff
// stamp if one is pending.
func (c *Coordinator) acquire(ctx context.Context) (*replica, error) {
	var rep *replica
	select {
	case rep = <-c.pool:
	case <-c.allDead:
		return nil, errAllReplicasDead
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if wait := time.Until(rep.notBefore); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			c.pool <- rep
			return nil, ctx.Err()
		}
	}
	return rep, nil
}

// release returns a replica to the rotation, or retires it.
func (c *Coordinator) release(rep *replica, dead bool) {
	if !dead {
		c.pool <- rep
		return
	}
	c.retired.Add(1)
	c.col.Count("shard.replica_dead", 1)
	if c.healthy.Add(-1) == 0 {
		c.deadOnce.Do(func() { close(c.allDead) })
	}
}

// retryAfterDelay parses a Retry-After header in either of its HTTP
// forms — delta-seconds or an HTTP-date — into a non-negative delay.
func retryAfterDelay(h string, now time.Time) (time.Duration, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			secs = 0
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(h); err == nil {
		d := at.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// backoff returns the capped exponential delay for a shard's attempt
// number (0-based).
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff << attempt
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	return d
}

// fetchOutcome classifies one streamRange attempt.
type fetchOutcome int

const (
	fetchComplete fetchOutcome = iota
	// fetchRetry: the replica is alive but couldn't finish (admission
	// 429/503, or a strict shard stream that ended early with an
	// incomplete trailer). Back off, then resume from the prefix.
	fetchRetry
	// fetchDead: the transport failed — connect refused, connection
	// reset mid-stream. Retire the replica, resume elsewhere.
	fetchDead
	// fetchAbort: a permanent error (4xx, protocol violation); retrying
	// could only repeat it, so the sweep aborts.
	fetchAbort
)

// streamRange POSTs one ranged sweep request and appends the parsed
// rows to *rows. Rows arrive in global index order and are validated
// against the expected resume point, so whatever prefix accumulates —
// even across a mid-stream disconnect — is a valid resume base.
func (c *Coordinator) streamRange(ctx context.Context, rep *replica, spec serve.SweepRequest, lo, hi int64, rows *[]stream.Row) (fetchOutcome, time.Duration, error) {
	spec.Lo, spec.Hi = lo, hi
	body, err := json.Marshal(spec)
	if err != nil {
		return fetchAbort, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return fetchAbort, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return fetchAbort, 0, ctx.Err()
		}
		return fetchDead, 0, err
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		delay, _ := retryAfterDelay(resp.Header.Get("Retry-After"), time.Now())
		return fetchRetry, delay, fmt.Errorf("replica %s busy: %s", rep.base, resp.Status)
	default:
		msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
		return fetchAbort, 0, fmt.Errorf("replica %s: %s: %s", rep.base, resp.Status, strings.TrimSpace(msg))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	next := lo
	var trailer *stream.Trailer
	for sc.Scan() {
		p, err := stream.ParseNDJSONLine(sc.Bytes())
		if err != nil {
			return fetchAbort, 0, err
		}
		if p.IsTrailer {
			t := p.Trailer
			trailer = &t
			break
		}
		if p.Row.Index != next {
			return fetchAbort, 0, fmt.Errorf("replica %s: row index %d, expected %d (shard [%d,%d))",
				rep.base, p.Row.Index, next, lo, hi)
		}
		*rows = append(*rows, p.Row)
		next++
	}
	if err := sc.Err(); err != nil {
		// Disconnect mid-stream: the contiguous prefix already appended
		// stays valid; the replica does not.
		if ctx.Err() != nil {
			return fetchAbort, 0, ctx.Err()
		}
		return fetchDead, 0, err
	}
	if trailer == nil {
		return fetchDead, 0, fmt.Errorf("replica %s: stream ended without a trailer", rep.base)
	}
	if trailer.Rows != next-lo {
		return fetchAbort, 0, fmt.Errorf("replica %s: trailer says %d rows, stream carried %d",
			rep.base, trailer.Rows, next-lo)
	}
	if next < hi {
		// The replica ended the shard early (deadline, drain) but said so
		// properly: trailer.Rows is the resume point.
		return fetchRetry, 0, fmt.Errorf("replica %s: shard [%d,%d) incomplete after %d rows (%s)",
			rep.base, lo, hi, next-lo, trailer.Reason)
	}
	return fetchComplete, 0, nil
}

// fetchShard assembles one shard's full row range, resuming across
// replicas and attempts. It returns the rows and the shard's digest.
func (c *Coordinator) fetchShard(ctx context.Context, spec serve.SweepRequest, rg Range, shardIdx int) ([]stream.Row, *Digests, error) {
	rows := make([]stream.Row, 0, rg.Rows())
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		rep, err := c.acquire(ctx)
		if err != nil {
			if lastErr != nil && errors.Is(err, errAllReplicasDead) {
				return nil, nil, fmt.Errorf("%w (last: %v)", err, lastErr)
			}
			return nil, nil, err
		}
		if attempt > 0 {
			c.retries.Add(1)
			c.col.Count("shard.retries", 1)
			if len(rows) > 0 {
				c.col.Count("shard.resumes", 1)
			}
		}
		span := c.col.Lane("shard-replica "+strconv.Itoa(rep.idx)).StartIndexed("shard", shardIdx)
		before := len(rows)
		outcome, retryAfter, err := c.streamRange(ctx, rep, spec, rg.Lo+int64(len(rows)), rg.Hi, &rows)
		busy := span.End()
		telemetry.ActiveProgress().WorkerBusy(rep.idx, busy)
		c.col.Count("shard.rows", int64(len(rows)-before))

		switch outcome {
		case fetchComplete:
			c.release(rep, false)
			d, derr := NewDigests(c.cfg.TopK)
			if derr != nil {
				return nil, nil, derr
			}
			for _, r := range rows {
				if derr := d.Emit(r); derr != nil {
					return nil, nil, derr
				}
			}
			return rows, d, nil
		case fetchRetry:
			delay := c.backoff(attempt)
			if retryAfter > delay {
				delay = retryAfter
			}
			rep.notBefore = time.Now().Add(delay)
			c.release(rep, false)
			lastErr = err
		case fetchDead:
			c.release(rep, true)
			lastErr = err
		default:
			c.release(rep, false)
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("shardmap: shard [%d,%d) failed after %d attempts: %w",
		rg.Lo, rg.Hi, c.cfg.MaxAttempts, lastErr)
}

// PlanTotal asks the fleet for the normalized spec and exact row count
// of a sweep, trying replicas in order until one answers. When none
// answered and at least one turned the request away as busy (429 or
// 503), it sits out the backoff, or the longest Retry-After asked for,
// and asks the fleet again, up to MaxAttempts rounds.
func (c *Coordinator) PlanTotal(ctx context.Context, req serve.SweepRequest) (serve.SweepRequest, int64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return req, 0, err
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		wait, busy := c.backoff(attempt), false
		for _, base := range c.cfg.Replicas {
			hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
				strings.TrimRight(base, "/")+"/v1/plan", bytes.NewReader(body))
			if err != nil {
				return req, 0, err
			}
			hreq.Header.Set("Content-Type", "application/json")
			resp, err := c.cfg.Client.Do(hreq)
			if err != nil {
				lastErr = err
				continue
			}
			var plan serve.PlanResponse
			if resp.StatusCode != http.StatusOK {
				msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
				resp.Body.Close()
				err = fmt.Errorf("replica %s: %s: %s", base, resp.Status, strings.TrimSpace(msg))
				switch resp.StatusCode {
				case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
					return req, 0, err // every replica would reject it the same way
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					busy = true
					if d, ok := retryAfterDelay(resp.Header.Get("Retry-After"), time.Now()); ok && d > wait {
						wait = d
					}
				}
				lastErr = err
				continue
			}
			err = json.NewDecoder(resp.Body).Decode(&plan)
			resp.Body.Close()
			if err != nil {
				lastErr = err
				continue
			}
			return plan.Spec, plan.Points, nil
		}
		if !busy || attempt+1 == c.cfg.MaxAttempts {
			break
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return req, 0, ctx.Err()
		}
	}
	return req, 0, fmt.Errorf("shardmap: no replica answered /v1/plan: %w", lastErr)
}

// reason renders a sweep-ending error for the synthesized trailer,
// mirroring the single-node stream's convention.
func reason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline exceeded"
	default:
		return err.Error()
	}
}

// Sweep fans one sweep out over the fleet and re-emits every row into
// sink in strict global grid order, closing it with a synthesized
// trailer equivalent to a single node's. On abort the ordered prefix
// has been delivered and the trailer names the reason; the error is
// returned after sink.Close, exactly like core's stream entry points.
func (c *Coordinator) Sweep(ctx context.Context, req serve.SweepRequest, sink stream.Sink) (*Result, error) {
	defer c.col.Start("shardmap.Sweep").End()
	if sink == nil {
		return nil, fmt.Errorf("shardmap: nil sink")
	}
	if req.Ranged() || req.Lo != 0 {
		return nil, fmt.Errorf("shardmap: Sweep fans out a whole grid, not a shard range")
	}
	spec, total, err := c.PlanTotal(ctx, req)
	if err != nil {
		// Even a sweep that dies at planning leaves a well-formed
		// artifact: an empty body and a trailer naming the reason.
		t := stream.Trailer{Reason: reason(err)}
		_ = sink.Close(t)
		return &Result{Reason: t.Reason}, err
	}
	shards := Plan(total, c.cfg.ShardRows)

	pr := telemetry.ActiveProgress()
	pr.Begin("sweep-fan", total)
	pr.SetWorkers(len(c.cfg.Replicas))

	merged, err := NewDigests(c.cfg.TopK)
	if err != nil {
		return nil, err
	}
	// Abort plumbing: the first failed turn cancels fctx, which unwinds
	// workers blocked in acquire() or mid-fetch; turns itself releases
	// workers blocked waiting for their emission turn.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	turns := parallel.NewTurns()
	var emitted int64
	var next atomic.Int64

	nWorkers := len(c.cfg.Replicas)
	if nWorkers > len(shards) {
		nWorkers = len(shards)
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				shardIdx := int(next.Add(1) - 1)
				if shardIdx >= len(shards) {
					return
				}
				rows, digest, ferr := c.fetchShard(fctx, spec, shards[shardIdx], shardIdx)
				wait, ok := turns.Do(shardIdx, func() error {
					if ferr != nil {
						return ferr
					}
					for _, r := range rows {
						if err := sink.Emit(r); err != nil {
							return err
						}
					}
					emitted += int64(len(rows))
					pr.AddRows(int64(len(rows)))
					pr.ChunkDone()
					return merged.Merge(digest)
				})
				c.col.Observe("shard.emitwait.wall_ns", int64(wait))
				if !ok {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()

	sweepErr := turns.Err()
	if sweepErr == nil {
		if err := ctx.Err(); err != nil && turns.Done() < len(shards) {
			sweepErr = err
		}
	}
	trailer := stream.Trailer{
		Rows:     emitted,
		Total:    total,
		Complete: sweepErr == nil && emitted == total,
		Reason:   reason(sweepErr),
	}
	closeErr := sink.Close(trailer)
	pr.Finish(trailer.Complete, trailer.Reason)
	res := &Result{
		Rows: emitted, Total: total,
		Complete: trailer.Complete, Reason: trailer.Reason,
		Shards:  len(shards),
		Retries: c.retries.Load(),
		Retired: int(c.retired.Load()),
		Digests: merged,
	}
	if sweepErr != nil {
		return res, sweepErr
	}
	return res, closeErr
}
