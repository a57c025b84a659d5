package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/obs"
	"repro/service"
	"repro/service/store"
)

// eventBuffer is the trace's event-subscription buffer: a few seconds of
// the busiest workload's events, so the collector, which only appends to a
// slice, never falls far enough behind for the bus to drop one.
const eventBuffer = 1 << 16

// tracer records spans at the layer boundaries the benchmark can see from
// outside the program: client calls, the HTTP handler, job lifecycle
// events and store appends. Spans are kept in memory and written out when
// the run ends. A nil *tracer is an untraced run.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu     sync.Mutex
	spans  []rawSpan
	events []obs.Event
	open   map[string]int // job → submitted minus terminal events seen, when not 0

	sub       *obs.Subscriber
	collected chan struct{}
	dropped   int64
}

// rawSpan is a span as recorded; times are nanoseconds since tracer.base.
type rawSpan struct {
	name       string
	op         uint64
	job        string
	start, end int64
	bytes      int64
}

func newTracer() *tracer { return &tracer{base: time.Now(), open: map[string]int{}} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) span(name string, op uint64, job string, start, end time.Time, bytes int64) {
	s := rawSpan{name: name, op: op, job: job, start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base)), bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// start subscribes to the service's events and turns recording on.
func (t *tracer) start(svc *service.Service) {
	t.sub = svc.Events(eventBuffer, 0)
	t.collected = make(chan struct{})
	go func() {
		defer close(t.collected)
		for ev := range t.sub.C {
			t.mu.Lock()
			t.events = append(t.events, ev)
			// Order-free: job.done can precede job.submitted.
			switch ev.Type {
			case "job.submitted":
				t.open[ev.Job]++
			case "job.done", "job.failed", "job.cancelled":
				t.open[ev.Job]--
			}
			if t.open[ev.Job] == 0 {
				delete(t.open, ev.Job)
			}
			t.mu.Unlock()
		}
	}()
	t.on.Store(true)
}

// stop waits for the traced jobs' trailing events, turns recording off and
// detaches from the event bus. The service marks a job done before it
// appends the run to the store and publishes job.done, so the last op can
// return before its job's last events.
func (t *tracer) stop() {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		t.mu.Lock()
		open := len(t.open)
		t.mu.Unlock()
		if open == 0 {
			break
		}
	}
	t.on.Store(false)
	t.dropped = t.sub.Dropped()
	t.sub.Close()
	<-t.collected
}

// Request ids join server-side spans and events to the op that caused
// them: the bench's RoundTripper stamps "bench-<op>-<call>" on each traced
// request, and the service carries it onto the job, its events and its
// stored run.
type requestIDKey struct{}

func requestID(op uint64, call string) string {
	return "bench-" + strconv.FormatUint(op, 16) + "-" + call
}

func parseRequestID(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "bench-")
	if !ok {
		return 0, false
	}
	hex, _, _ := strings.Cut(rest, "-")
	op, err := strconv.ParseUint(hex, 16, 64)
	return op, err == nil
}

// stampRequestID sets X-Request-Id from the request context.
type stampRequestID struct{ base http.RoundTripper }

func (s stampRequestID) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(requestIDKey{}).(string)
	if !ok {
		return s.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set("X-Request-Id", id)
	return s.base.RoundTrip(r)
}

// handler wraps the service's Handler() to time each traced request and
// count the body bytes it writes, by route.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, traced := parseRequestID(r.Header.Get("X-Request-Id"))
		if !traced || !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		t.span("service.http."+route(r), op, "", start, time.Now(), cw.n)
	})
}

func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/runs":
		return "submit"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/batches":
		return "batch"
	case strings.HasSuffix(r.URL.Path, "/stream"):
		return "stream"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/runs/"):
		return "get"
	}
	return "other"
}

// countingWriter counts response body bytes. It passes Flush through so
// the NDJSON endpoints still flush per line.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedStore is the store the traced service runs on: the file store
// itself, with Load timed at set-up and each Append recorded as a span
// while tracing. Stats, Close and OnDrop are the embedded log's own.
type timedStore struct {
	*store.Log
	tr      *tracer
	openDur time.Duration
	loadDur time.Duration
}

func openTimedStore(path string, tr *tracer) (*timedStore, error) {
	start := time.Now()
	l, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	return &timedStore{Log: l, tr: tr, openDur: time.Since(start)}, nil
}

func (s *timedStore) Load(apply func(store.Run) error) error {
	start := time.Now()
	err := s.Log.Load(apply)
	s.loadDur = time.Since(start)
	return err
}

func (s *timedStore) Append(r store.Run) error {
	if !s.tr.enabled() {
		return s.Log.Append(r)
	}
	start := time.Now()
	err := s.Log.Append(r)
	if op, ok := parseRequestID(r.RequestID); ok {
		s.tr.span("store.append", op, r.ID, start, time.Now(), 0)
	}
	return err
}

// span is an assembled span as written to the span file. Self is the
// span's duration minus the part of it its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// assemble turns the recorded spans and job events into one span tree per
// op and computes each span's self time. Job events become three spans:
// service.job (submitted → terminal) with children service.queue
// (submitted → started) and service.worker (started → terminal), the
// latter the parent of the job's store.append. A job's parent is the HTTP
// span of its op it overlaps most: the submit handler for a cache hit, the
// stream handler a miss's client waits in, the batch handler for cells.
//
// The service publishes job.submitted after it has queued the job, so a
// worker's job.started, and for a short run even job.done, can precede
// it on the bus. A job therefore starts at its earliest event, and its
// queue span is empty when job.started came first.
func (t *tracer) assemble() []span {
	raw := slices.Clone(t.spans)
	type lifecycle struct {
		op                          uint64
		submitted, started, stopped int64
		seen                        uint8 // bit per event kind
	}
	const sawSubmitted, sawStarted, sawStopped = 1, 2, 4
	jobs := map[string]*lifecycle{}
	for _, ev := range t.events {
		op, ok := parseRequestID(ev.RequestID)
		if !ok || ev.Job == "" {
			continue
		}
		j := jobs[ev.Job]
		if j == nil {
			j = &lifecycle{op: op}
			jobs[ev.Job] = j
		}
		at := int64(ev.Time.Sub(t.base))
		switch ev.Type {
		case "job.submitted":
			j.submitted, j.seen = at, j.seen|sawSubmitted
		case "job.started":
			j.started, j.seen = at, j.seen|sawStarted
		case "job.done", "job.failed", "job.cancelled":
			j.stopped, j.seen = at, j.seen|sawStopped
		}
	}
	for id, j := range jobs {
		if j.seen&sawSubmitted == 0 || j.seen&sawStopped == 0 {
			continue
		}
		begin := j.submitted
		if j.seen&sawStarted != 0 {
			begin = min(begin, j.started)
			raw = append(raw,
				rawSpan{name: "service.queue", op: j.op, job: id, start: begin, end: j.started},
				rawSpan{name: "service.worker", op: j.op, job: id, start: j.started, end: j.stopped})
		}
		raw = append(raw, rawSpan{name: "service.job", op: j.op, job: id, start: begin, end: j.stopped})
	}
	slices.SortFunc(raw, func(a, b rawSpan) int {
		return cmp.Or(cmp.Compare(a.op, b.op), cmp.Compare(a.start, b.start))
	})

	out := make([]span, len(raw))
	for i, r := range raw {
		out[i] = span{ID: i + 1, Name: r.name, Op: strconv.FormatUint(r.op, 16), Job: r.job, Start: r.start, End: r.end, Bytes: r.bytes}
	}
	for lo := 0; lo < len(raw); {
		hi := lo
		for hi < len(raw) && raw[hi].op == raw[lo].op {
			hi++
		}
		linkOp(out[lo:hi])
		lo = hi
	}
	children := make(map[int][]span, len(out))
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		out[i].Self = out[i].dur() - covered(out[i], children[out[i].ID])
	}
	return out
}

// linkOp sets the parents of one op's spans.
func linkOp(op []span) {
	byName := map[string]int{}
	worker, job := map[string]int{}, map[string]int{}
	for _, s := range op {
		switch s.Name {
		case "service.job":
			job[s.Job] = s.ID
		case "service.worker":
			worker[s.Job] = s.ID
		default:
			byName[s.Name] = s.ID
		}
	}
	root := byName["client.op"]
	for i := range op {
		s := &op[i]
		switch {
		case s.Name == "client.op":
		case strings.HasPrefix(s.Name, "client."):
			s.Parent = root
		case strings.HasPrefix(s.Name, "service.http."):
			s.Parent = firstNonZero(byName["client."+strings.TrimPrefix(s.Name, "service.http.")], root)
		case s.Name == "service.job":
			s.Parent = root
			best := int64(0)
			for _, h := range op {
				if strings.HasPrefix(h.Name, "service.http.") {
					if o := overlap(*s, h); o > best {
						s.Parent, best = h.ID, o
					}
				}
			}
		case s.Name == "service.queue" || s.Name == "service.worker":
			s.Parent = job[s.Job]
		case s.Name == "store.append":
			s.Parent = firstNonZero(worker[s.Job], job[s.Job], root)
		}
	}
}

func firstNonZero(ids ...int) int {
	for _, id := range ids {
		if id != 0 {
			return id
		}
	}
	return 0
}

func overlap(a, b span) int64 {
	return max(0, min(a.End, b.End)-max(a.Start, b.Start))
}

// covered is the length of the part of s that the union of cover spans
// overlaps.
func covered(s span, cover []span) int64 {
	ivs := make([][2]int64, 0, len(cover))
	for _, c := range cover {
		if lo, hi := max(s.Start, c.Start), min(s.End, c.End); lo < hi {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
			end = iv[1]
		}
	}
	return total
}

// writeSpans stores the spans as gzipped NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
