package main

import (
	"encoding/json"
	"io"
	"net/http"
	"path"
	"sort"
	"strconv"
	"sync"
	"time"

	"twocs/internal/stream"
)

// This file is the traced run's instrumentation. Every span is recorded
// here, around calls into the program's public functions — the program
// itself carries no benchmark hooks. Spans stay in memory and are
// written out at the end in the Chrome trace-event format that
// internal/telemetry writes, so Perfetto opens both.

// spanHeader carries a client span's ID to the handler span of the same
// request.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval. Req is shared by the client and the
// handler span of one request; Parent is the span that caused this one.
// Rows holds per-row layers whose calls are too many to record one by
// one (each sink child's Emit): their summed time inside this span,
// which self time treats as children covering that much of it.
type span struct {
	ID, Parent, Req int64
	Layer, Lane     string
	Start, End      time.Duration
	Rows            map[string]time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ids   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// start opens a span; finish records it.
func (t *tracer) start(layer, lane string, parent, req int64) span {
	t.mu.Lock()
	t.ids++
	id := t.ids
	t.mu.Unlock()
	if req == 0 {
		req = id
	}
	return span{ID: id, Parent: parent, Req: req, Layer: layer, Lane: lane, Start: t.now()}
}

func (t *tracer) finish(s span) time.Duration {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.dur()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each layer's self time over spans: a span's duration
// minus the union of its child spans' intervals (clipped to it) and its
// per-row layers' summed time; each per-row layer's time is that
// layer's self time.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := union(kids[s.ID], s.Start, s.End)
		for layer, d := range s.Rows {
			covered += d
			out[layer] += d
		}
		if self := s.dur() - covered; self > 0 {
			out[s.Layer] += self
		}
	}
	return out
}

// union returns how much of [lo, hi) the spans cover.
func union(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// traceEvent mirrors internal/telemetry's Chrome trace-event entry.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a trace-event JSON array: one thread
// per lane, span and request IDs and per-row layer times as args.
func writeChromeTrace(w io.Writer, spans []span) error {
	events := []traceEvent{{Name: "process_name", Ph: "M", Args: map[string]string{"name": "perfbench"}}}
	lanes := map[string]int{}
	for _, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes)
			lanes[s.Lane] = tid
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", TID: tid,
				Args: map[string]string{"name": s.Lane}})
		}
		args := map[string]string{
			"id":     strconv.FormatInt(s.ID, 10),
			"parent": strconv.FormatInt(s.Parent, 10),
			"req":    strconv.FormatInt(s.Req, 10),
		}
		for layer, d := range s.Rows {
			args[layer+".ms"] = strconv.FormatFloat(ms(d), 'f', 3, 64)
		}
		events = append(events, traceEvent{
			Name: s.Layer, Cat: "perfbench", Ph: "X", TID: tid, Args: args,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
		})
	}
	return json.NewEncoder(w).Encode(events)
}

// timedSink sums the time spent in one sink's calls.
type timedSink struct {
	inner stream.Sink
	busy  time.Duration
}

func (s *timedSink) Emit(r stream.Row) error {
	t := time.Now()
	err := s.inner.Emit(r)
	s.busy += time.Since(t)
	return err
}

func (s *timedSink) Close(tr stream.Trailer) error {
	t := time.Now()
	err := s.inner.Close(tr)
	s.busy += time.Since(t)
	return err
}

// shardSink records one shardmap.emit span per shard of the fan-out's
// plan: from the shard's first row reaching the sink to its last row
// leaving it, with the NDJSON writer's time inside as a per-row layer.
type shardSink struct {
	inner     stream.Sink
	nd        *timedSink
	tr        *tracer
	parent    int64
	shardRows int64
	cur       span
	ndAt      time.Duration
}

func (s *shardSink) Emit(r stream.Row) error {
	if r.Index%s.shardRows == 0 {
		s.cur = s.tr.start("shardmap.emit", "coordinator", s.parent, 0)
		s.ndAt = s.nd.busy
	}
	err := s.inner.Emit(r)
	if (r.Index+1)%s.shardRows == 0 {
		s.flush()
	}
	return err
}

func (s *shardSink) flush() {
	if s.cur.ID == 0 {
		return
	}
	s.cur.Rows = map[string]time.Duration{"stream.ndjson.emit": s.nd.busy - s.ndAt}
	s.tr.finish(s.cur)
	s.cur = span{}
}

func (s *shardSink) Close(t stream.Trailer) error {
	s.flush() // the last shard may be short
	return s.inner.Close(t)
}

// tracedHandler records a handler span for every request that carries
// spanHeader, and the study cache verdict it answered with.
type tracedHandler struct {
	h    http.Handler
	tr   *tracer
	lane string
	mu   sync.Mutex
	// results maps a request ID to its handler outcome.
	results map[int64]handled
}

type handled struct {
	cache string
	dur   time.Duration
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		th.h.ServeHTTP(w, r)
		return
	}
	s := th.tr.start("serve."+path.Base(r.URL.Path), th.lane, id, id)
	th.h.ServeHTTP(w, r)
	d := th.tr.finish(s)
	th.mu.Lock()
	th.results[id] = handled{cache: w.Header().Get("X-Twocsd-Cache"), dur: d}
	th.mu.Unlock()
}

// tracedTransport records a client span per request of a traced
// operation, from the round trip's start until the response body is
// closed, and sends the span ID in spanHeader. parent returns the
// operation's span, or 0 while the operation is untraced.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent func() int64
	mu     sync.Mutex
	status map[int]int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := t.parent()
	if parent == 0 {
		return t.base.RoundTrip(req)
	}
	s := t.tr.start("http.client."+path.Base(req.URL.Path), "coordinator", parent, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.finish(s)
		return nil, err
	}
	t.mu.Lock()
	t.status[resp.StatusCode]++
	t.mu.Unlock()
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.finish(s) }}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
