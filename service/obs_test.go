package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/obs"
)

func obsSpec(seed uint64) Spec {
	return Spec{Seed: seed, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 2000},
		Rule: RuleSpec{Name: "median"},
	}}
}

// TestRunTimingRecorded: a finished job's result carries the lifecycle
// timing breakdown, and a cache hit serves the original run's timing.
func TestRunTimingRecorded(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	defer s.Close()
	first, err := s.Submit(obsSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, first.ID)
	if final.Status != StatusDone || final.Result == nil {
		t.Fatalf("run failed: %+v", final)
	}
	tm := final.Result.Timing
	if tm == nil {
		t.Fatal("finished run has no Timing")
	}
	if tm.RunSeconds < 0 || tm.QueueWaitSeconds < 0 {
		t.Fatalf("negative timing: %+v", tm)
	}
	if tm.TotalSeconds+1e-9 < tm.RunSeconds {
		t.Fatalf("total %.9fs < run %.9fs", tm.TotalSeconds, tm.RunSeconds)
	}
	if tm.RecordsEmitted != final.Records {
		t.Fatalf("timing records %d, view records %d", tm.RecordsEmitted, final.Records)
	}
	if final.Result.Rounds > 0 && tm.RunSeconds > 0 && tm.RoundsPerSec <= 0 {
		t.Fatalf("rounds/sec not derived: %+v", tm)
	}
	second, err := s.Submit(obsSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Result == nil || second.Result.Timing == nil {
		t.Fatalf("cache hit lost the timing: %+v", second)
	}
	if *second.Result.Timing != *tm {
		t.Fatalf("cache hit timing %+v, want the original run's %+v", second.Result.Timing, tm)
	}
}

// TestMetricsExpositionLint drives the service over HTTP, then runs the
// Prometheus text exposition through the obs.Lint parser: every family
// must have a paired HELP/TYPE, no duplicate names or samples, coherent
// histograms — and the per-kind latency histograms promised by the API
// must actually be there.
func TestMetricsExpositionLint(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submitRun(t, srv.URL, obsSpec(3))
	// One unmatched route, so the "unmatched" label value is linted too.
	resp, err := http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A small batch populates the batch counters and a second spec kind.
	if err := s.RunBatch(context.Background(), mustExpand(t, s, BatchRequest{
		Template: obsSpec(0),
		Axes:     []Axis{{Param: "seed", Values: []float64{1, 2}}},
	}), func(BatchCellRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if errs := obs.Lint(bytes.NewReader(body)); len(errs) != 0 {
		t.Fatalf("exposition lint failed:\n%v\n---\n%s", errs, text)
	}
	for _, want := range []string{
		`consensusd_run_duration_seconds_bucket{kind="median",le="+Inf"}`,
		`consensusd_run_duration_seconds_count{kind="median"}`,
		"consensusd_run_queue_wait_seconds_count",
		`consensusd_rounds_per_run_count{kind="median"}`,
		`consensusd_rounds_total{kind="median"}`,
		`consensusd_http_request_duration_seconds_bucket{route="POST /v1/runs",status="202",le=`,
		`route="unmatched"`,
		"consensusd_build_info{",
		"consensusd_uptime_seconds",
		"consensusd_events_published_total",
		"# TYPE consensusd_jobs_submitted_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Cross-format consistency: the JSON view renders from the same walk,
	// so the scalar counters and the histogram counts must agree.
	var m map[string]any
	jresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(jresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if _, ok := m["jobs_submitted"]; !ok {
		t.Error("JSON view lost jobs_submitted")
	}
	hist, ok := m["run_duration_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("JSON view has no run_duration_seconds histogram: %T", m["run_duration_seconds"])
	}
	med, ok := hist["kind=median"].(map[string]any)
	if !ok {
		t.Fatalf("run_duration_seconds has no kind=median sample: %v", hist)
	}
	count, _ := med["count"].(float64)
	wantRuns := m["jobs_completed"].(float64) - m["cache_hits"].(float64)
	if count != wantRuns {
		t.Errorf("run_duration count %v, want %v (completed minus cache hits)", count, wantRuns)
	}
}

func mustExpand(t *testing.T, s *Service, req BatchRequest) []BatchCell {
	t.Helper()
	cells, err := s.ExpandBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func submitRun(t *testing.T, baseURL string, spec Spec) JobView {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/runs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRequestIDMiddleware: a client-supplied X-Request-Id is echoed on the
// response, recorded on the job, and a missing one is generated.
func TestRequestIDMiddleware(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	buf, _ := json.Marshal(obsSpec(5))
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-abc-123" {
		t.Fatalf("response X-Request-Id = %q, want the propagated req-abc-123", got)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.RequestID != "req-abc-123" {
		t.Fatalf("job request_id = %q, want req-abc-123", v.RequestID)
	}
	if got, err := s.Get(v.ID); err != nil || got.RequestID != "req-abc-123" {
		t.Fatalf("job lost its request id: %+v, %v", got, err)
	}

	// Without a client id, the middleware generates one.
	resp2, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("generated X-Request-Id = %q, want 16 hex chars", got)
	}

	// An id is propagated only if it is at most 128 bytes of
	// [A-Za-z0-9._:-]; the job keeps a generated one otherwise. Each
	// resubmission must be a fresh cache-hit job carrying its own id, so
	// the first run finishes first: a submit while it is still queued or
	// running would coalesce onto it and return req-abc-123.
	waitDone(t, s, v.ID)
	for i, tc := range []struct {
		id        string
		propagate bool
	}{
		{"bench-1f2e-submit", true},
		{"ci-smoke-1", true},
		{"a.B_9:z-" + strings.Repeat("x", 120), true},
		{strings.Repeat("x", 129), false},
		{strings.Repeat("x", 900<<10), false},
		{"req abc", false},
		{"req/abc", false},
		{"<script>", false},
		{"req-\u00e9", false},
	} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Header.Get("X-Request-Id")
		want := tc.id
		if !tc.propagate {
			if len(got) != 16 || strings.Trim(got, "0123456789abcdef") != "" {
				t.Fatalf("case %d: X-Request-Id = %.40q, want 16 generated hex chars", i, got)
			}
			want = got
		}
		if got != want || v.RequestID != want {
			t.Fatalf("case %d: X-Request-Id = %.40q, job request_id = %.40q, want %.40q", i, got, v.RequestID, want)
		}
	}
}

// TestEventsStreamE2E subscribes to GET /v1/events over HTTP, submits a
// run, and must observe its complete lifecycle — submitted, started, done,
// in that order, all carrying the submission's request id.
func TestEventsStreamE2E(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	events := make(chan obs.Event, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev obs.Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events <- ev
			}
		}
	}()
	// Give the subscription a moment to attach before submitting, so the
	// lifecycle is live-streamed, not replayed.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().EventSubscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("event subscriber never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}

	buf, _ := json.Marshal(obsSpec(7))
	sreq, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	sreq.Header.Set("X-Request-Id", "evt-req-1")
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(sresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()

	var seen []string
	var lastSeq uint64
	timeout := time.After(10 * time.Second)
	for len(seen) == 0 || seen[len(seen)-1] != "job.done" {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream closed early; saw %v", seen)
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("sequence numbers not increasing: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if ev.Job != view.ID {
				continue
			}
			if ev.RequestID != "evt-req-1" {
				t.Fatalf("event %s lost the request id: %+v", ev.Type, ev)
			}
			if ev.Kind != "median" {
				t.Fatalf("event %s lost the kind: %+v", ev.Type, ev)
			}
			seen = append(seen, ev.Type)
		case <-timeout:
			t.Fatalf("lifecycle incomplete after 10s; saw %v", seen)
		}
	}
	want := []string{"job.submitted", "job.started", "job.done"}
	if len(seen) != len(want) {
		t.Fatalf("lifecycle events %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("lifecycle events %v, want %v", seen, want)
		}
	}

	// Disconnecting must detach the subscriber.
	cancel()
	deadline = time.Now().Add(5 * time.Second)
	for s.Metrics().EventSubscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber still attached after disconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEventsSlowConsumer: a subscriber that never reads loses events —
// counted on the subscriber and on the bus-wide dropped counter — while
// the service keeps running at full speed.
func TestEventsSlowConsumer(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	defer s.Close()
	sub := s.Events(1, 0) // deliberately tiny buffer, never read
	if sub == nil {
		t.Fatal("subscribe failed")
	}
	defer sub.Close()
	for i := 0; i < 8; i++ {
		v, err := s.Submit(obsSpec(uint64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, v.ID)
	}
	if sub.Dropped() == 0 {
		t.Fatal("slow consumer lost no events despite a 1-event buffer")
	}
	m := s.Metrics()
	if m.EventsDropped != sub.Dropped() {
		t.Fatalf("events_dropped = %d, subscriber dropped %d", m.EventsDropped, sub.Dropped())
	}
	if m.EventsPublished == 0 {
		t.Fatal("events_published stayed 0")
	}
}

// TestEventsReplay: ?replay=N serves recent ring-buffer history to a
// subscriber that attaches after the fact.
func TestEventsReplay(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	v := submitRun(t, srv.URL, obsSpec(42))
	waitDone(t, s, v.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events?replay=64", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	types := map[string]bool{}
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Job == v.ID {
			types[ev.Type] = true
		}
		if types["job.submitted"] && types["job.started"] && types["job.done"] {
			return
		}
	}
	t.Fatalf("replay missed lifecycle events: %v", types)
}

// TestEventsBadReplay rejects a malformed replay parameter.
func TestEventsBadReplay(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/events?replay=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replay=bogus returned %d, want 400", resp.StatusCode)
	}
}

// TestEventsHugeReplay: an absurd ?replay on the unauthenticated events
// endpoint opens the stream (200) with at most EventBuffer replayed
// events and allocates about a ring's worth: the bus clamps replay to
// its ring before anything is sized by it.
func TestEventsHugeReplay(t *testing.T) {
	const ring = 8
	s := newTestService(t, Options{Workers: 1, EventBuffer: ring})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Publish more than the ring holds and note the last event's seq: a
	// watcher sees the run's job.done, then the cache hits' events, which
	// Submit publishes before it returns.
	watch := s.Events(64, 0)
	awaitDone := func(id string) uint64 {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			select {
			case ev := <-watch.C:
				if ev.Type == "job.done" && ev.Job == id {
					return ev.Seq
				}
			case <-timeout:
				t.Fatalf("no job.done event for %s", id)
			}
		}
	}
	v, err := s.Submit(obsSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	watermark := awaitDone(v.ID)
	for i := 0; i < ring; i++ {
		if v, err = s.Submit(obsSpec(43)); err != nil {
			t.Fatal(err)
		}
	}
	watermark = awaitDone(v.ID)
	watch.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events?replay=1099511627776", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("huge replay returned %d, want 200", resp.StatusCode)
	}
	// The stream is subscribed once its headers arrive, so this hit's
	// events are live: the first one ends the replay.
	if _, err := s.Submit(obsSpec(43)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	replayed := 0
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if want := watermark - ring + 1 + uint64(replayed); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", replayed, ev.Seq, want)
		}
		if ev.Seq > watermark {
			break
		}
		replayed++
	}
	runtime.ReadMemStats(&after)
	if replayed != ring {
		t.Fatalf("replayed %d events, want the ring's %d", replayed, ring)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("the huge-replay request allocated %d bytes", grew)
	}
}

var _ = fmt.Sprintf // keep fmt imported for debug turns
