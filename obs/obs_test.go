package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestHistogramBuckets pins the log2 bucketing: values land in the bucket
// whose upper bound is the next 2^i-1, counts are cumulative, and the
// scale only affects exposition.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "test_seconds", "help", 1)
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 111 { // -5 clamps to 0
		t.Fatalf("sum = %g, want 111", h.Sum())
	}
	d := h.data()
	// Buckets: 0 → {0,-5}=2; 1 → {1,1}=2 (cum 4); ≤3 → {2,3}=2 (cum 6);
	// ≤7 → {4}=1 (cum 7); ≤127 → {100}=1 (cum 8).
	want := []Bucket{{0, 2}, {1, 4}, {3, 6}, {7, 7}, {127, 8}}
	if len(d.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", d.Buckets, want)
	}
	for i, b := range want {
		if d.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, d.Buckets[i], b)
		}
	}
}

func TestHistogramScale(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur_seconds", "dur_seconds", "help", 1e-9)
	h.ObserveDuration(1500 * time.Millisecond)
	if got := h.Sum(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("scaled sum = %g, want 1.5", got)
	}
	d := h.data()
	if len(d.Buckets) != 1 || d.Buckets[0].UpperBound < 1.5 || d.Buckets[0].UpperBound > 4.3 {
		t.Fatalf("scaled bucket bounds wrong: %+v", d.Buckets)
	}
}

// TestHistogramOverflow: values beyond the last finite bucket appear only
// under +Inf, and the exposition stays lint-clean.
func TestHistogramOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("big", "big", "help", 1)
	h.Observe(math.MaxInt64)
	h.Observe(1)
	d := h.data()
	for _, b := range d.Buckets {
		if b.Count > 1 {
			t.Fatalf("overflow leaked into a finite bucket: %+v", d.Buckets)
		}
	}
	if d.Count != 2 {
		t.Fatalf("count = %d, want 2", d.Count)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if errs := Lint(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("overflow exposition fails lint: %v\n%s", errs, buf.String())
	}
}

// TestDualExposition: the JSON and Prometheus views of one registry carry
// exactly the same families — the anti-drift guarantee — and the text
// form passes the linter.
func TestDualExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("consensusd_things_total", "things", "Things counted.")
	c.Add(3)
	v := r.CounterVec("consensusd_kinds_total", "kinds", "Per-kind things.", "kind")
	v.With("median").Add(2)
	v.With("gossip").Inc()
	r.GaugeFunc("consensusd_depth", "depth", "A gauge.", func() float64 { return 7 })
	hv := r.HistogramVec("consensusd_lat_seconds", "lat_seconds", "Latency.", 1e-9, "kind")
	hv.With("median").ObserveDuration(3 * time.Millisecond)
	r.Info("consensusd_build_info", "build_info", "Build identity.",
		[]string{"version", "go"}, []string{"v1", "go1.24"})
	r.Histogram("consensusd_empty_seconds", "empty_seconds", "Never observed.", 1e-9)

	families := r.Gather()
	jm := r.JSONMap()
	if len(jm) != len(families) {
		t.Fatalf("JSON has %d families, walk has %d", len(jm), len(families))
	}
	for _, f := range families {
		if _, ok := jm[f.JSONName]; !ok {
			t.Fatalf("family %s missing from the JSON exposition", f.Name)
		}
	}
	var buf bytes.Buffer
	WriteFamilies(&buf, families)
	text := buf.String()
	for _, f := range families {
		if !strings.Contains(text, "# TYPE "+f.Name+" ") {
			t.Fatalf("family %s missing from the Prometheus exposition:\n%s", f.Name, text)
		}
	}
	if errs := Lint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("exposition fails lint: %v\n%s", errs, text)
	}
	// Spot-check shapes.
	if jm["things"].(float64) != 3 {
		t.Fatalf("things = %v", jm["things"])
	}
	kinds := jm["kinds"].(map[string]any)
	if kinds["kind=median"].(float64) != 2 || kinds["kind=gossip"].(float64) != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
	if !strings.Contains(text, `consensusd_kinds_total{kind="median"} 2`) {
		t.Fatalf("labeled counter missing:\n%s", text)
	}
	if !strings.Contains(text, `consensusd_build_info{version="v1",go="go1.24"} 1`) {
		t.Fatalf("info gauge missing:\n%s", text)
	}
	if !strings.Contains(text, `consensusd_lat_seconds_bucket{kind="median",le="+Inf"} 1`) {
		t.Fatalf("histogram +Inf bucket missing:\n%s", text)
	}
	// The JSON view survives a marshal round-trip (it is the /v1/metrics body).
	if _, err := json.Marshal(jm); err != nil {
		t.Fatalf("JSON exposition does not marshal: %v", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a", "help")
	for _, dup := range []func(){
		func() { r.Counter("a_total", "a2", "help") },
		func() { r.Counter("b_total", "a", "help") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("duplicate registration must panic")
				}
			}()
			dup()
		}()
	}
}

// TestLintCatchesViolations feeds the linter known-bad expositions.
func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"missing TYPE":       "# HELP a_total help\na_total 1\n",
		"missing HELP":       "# TYPE a_total counter\na_total 1\n",
		"duplicate TYPE":     "# HELP a help\n# TYPE a counter\n# TYPE a counter\na 1\n",
		"duplicate sample":   "# HELP a help\n# TYPE a counter\na 1\na 2\n",
		"bad name":           "# HELP a help\n# TYPE a counter\na 1\n0bad 2\n",
		"bad label syntax":   "# HELP a help\n# TYPE a counter\na{x=\"unterminated} 1\n",
		"bad value":          "# HELP a help\n# TYPE a counter\na pizza\n",
		"type after sample":  "a 1\n# HELP a help\n# TYPE a counter\n",
		"histogram no +Inf":  "# HELP h help\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram shrinks":  "# HELP h help\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count != +Inf":      "# HELP h help\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		"duplicate label":    "# HELP a help\n# TYPE a counter\na{k=\"1\",k=\"2\"} 1\n",
		"unpaired histogram": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, body := range cases {
		if errs := Lint(strings.NewReader(body)); len(errs) == 0 {
			t.Errorf("%s: lint found nothing wrong in:\n%s", name, body)
		}
	}
	good := "# HELP a_total help text\n# TYPE a_total counter\na_total{kind=\"x y\",other=\"a\\\"b\"} 12 1700000000\n" +
		"# HELP h help\n# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n"
	if errs := Lint(strings.NewReader(good)); len(errs) != 0 {
		t.Errorf("lint rejected a valid exposition: %v", errs)
	}
}

func TestBusPublishSubscribe(t *testing.T) {
	r := NewRegistry()
	pub := r.Counter("pub_total", "pub", "published")
	drop := r.Counter("drop_total", "drop", "dropped")
	b := NewBus(8, pub, drop)
	if b.HasSubscribers() {
		t.Fatal("fresh bus has no subscribers")
	}
	b.Publish(Event{Type: "pre.1"})
	b.Publish(Event{Type: "pre.2"})

	sub := b.Subscribe(16, 10) // replay wants more than exists: gets both
	if !b.HasSubscribers() {
		t.Fatal("subscriber not counted")
	}
	b.Publish(Event{Type: "live.1", Job: "r-1"})

	got := []Event{<-sub.C, <-sub.C, <-sub.C}
	if got[0].Type != "pre.1" || got[1].Type != "pre.2" || got[2].Type != "live.1" {
		t.Fatalf("events out of order: %+v", got)
	}
	if got[0].Seq >= got[1].Seq || got[1].Seq >= got[2].Seq {
		t.Fatalf("sequence numbers not increasing: %+v", got)
	}
	if got[2].Time.IsZero() {
		t.Fatal("publish must stamp the time")
	}
	sub.Close()
	if b.HasSubscribers() {
		t.Fatal("closed subscriber still counted")
	}
	if pub.Value() != 3 || drop.Value() != 0 {
		t.Fatalf("pub=%d drop=%d, want 3/0", pub.Value(), drop.Value())
	}
}

// TestBusSlowConsumer: a full subscriber buffer drops events (counted)
// without blocking the publisher.
func TestBusSlowConsumer(t *testing.T) {
	r := NewRegistry()
	drop := r.Counter("drop_total", "drop", "dropped")
	b := NewBus(64, nil, drop)
	sub := b.Subscribe(2, 0)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: "e"})
	}
	if sub.Dropped() != 8 || drop.Value() != 8 {
		t.Fatalf("dropped=%d counter=%d, want 8/8", sub.Dropped(), drop.Value())
	}
	// The two buffered events are still delivered; their seqs show the gap.
	first, second := <-sub.C, <-sub.C
	if first.Seq != 1 || second.Seq != 2 {
		t.Fatalf("buffered events have seqs %d,%d, want 1,2", first.Seq, second.Seq)
	}
}

func TestBusRingWraps(t *testing.T) {
	b := NewBus(4, nil, nil)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Round: i})
	}
	sub := b.Subscribe(8, 4)
	for want := 6; want < 10; want++ {
		ev := <-sub.C
		if ev.Round != want {
			t.Fatalf("replayed round %d, want %d", ev.Round, want)
		}
	}
}

// TestBusReplayClampedToRing: a replay far beyond the ring — one query
// parameter away on GET /v1/events — replays at most the ring, sizes the
// delivery buffer from that clamped value, and allocates nothing near
// the requested size.
func TestBusReplayClampedToRing(t *testing.T) {
	const huge = 1 << 40
	b := NewBus(8, nil, nil)
	for i := 0; i < 20; i++ {
		b.Publish(Event{Round: i})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sub := b.Subscribe(4, huge)
	runtime.ReadMemStats(&after)
	defer sub.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("Subscribe(4, %d) allocated %d bytes", huge, grew)
	}
	// The buffer grew from 4 to hold the whole ring's replay.
	if cap(sub.C) != 8 || len(sub.C) != 8 {
		t.Fatalf("buffer cap %d holding %d events, want 8 and 8", cap(sub.C), len(sub.C))
	}
	for want := 12; want < 20; want++ {
		if ev := <-sub.C; ev.Round != want {
			t.Fatalf("replayed round %d, want %d", ev.Round, want)
		}
	}
	// A ring not yet full replays what it holds; the default buffer is
	// larger than the ring, so it stays.
	b2 := NewBus(8, nil, nil)
	b2.Publish(Event{Round: 1})
	sub2 := b2.Subscribe(0, huge)
	defer sub2.Close()
	if cap(sub2.C) != 64 || len(sub2.C) != 1 {
		t.Fatalf("buffer cap %d holding %d events, want 64 and 1", cap(sub2.C), len(sub2.C))
	}
}

func TestBusClose(t *testing.T) {
	b := NewBus(4, nil, nil)
	sub := b.Subscribe(4, 0)
	b.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("subscriber channel must be closed")
	}
	b.Publish(Event{Type: "late"}) // must not panic
	if b.Subscribe(4, 0) != nil {
		t.Fatal("subscribe on a closed bus must return nil")
	}
}

func TestRunTrackerThrottle(t *testing.T) {
	r := NewRegistry()
	rounds := r.Counter("rounds_total", "rounds", "rounds")
	b := NewBus(64, nil, nil)
	sub := b.Subscribe(64, 0)
	tr := NewRunTracker(rounds, b, 4, Event{Type: "job.progress", Job: "r-9"})
	for i := 1; i <= 10; i++ {
		tr.Tick(i)
	}
	if rounds.Value() != 10 {
		t.Fatalf("rounds = %d, want 10", rounds.Value())
	}
	sub.Close()
	b.Close()
	var got []Event
	for ev := range sub.C {
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].Round != 4 || got[1].Round != 8 {
		t.Fatalf("progress events = %+v, want rounds 4 and 8", got)
	}
	if got[0].Job != "r-9" || got[0].Type != "job.progress" {
		t.Fatalf("prototype fields lost: %+v", got[0])
	}
}

// TestRunTrackerNoSubscribersNoAllocs: the per-round hot path allocates
// nothing when no one is watching — the property BenchmarkObservedRun
// quantifies end to end.
func TestRunTrackerNoAllocs(t *testing.T) {
	r := NewRegistry()
	rounds := r.Counter("rounds_total", "rounds", "rounds")
	b := NewBus(64, nil, nil)
	tr := NewRunTracker(rounds, b, 256, Event{Type: "job.progress"})
	n := 0
	if allocs := testing.AllocsPerRun(1000, func() { n++; tr.Tick(n) }); allocs != 0 {
		t.Fatalf("Tick allocates %v per round with no subscribers", allocs)
	}
	// With a subscriber the throttled publish path must also stay
	// allocation-free: the event is copied by value into the
	// preallocated ring and channel buffer.
	sub := b.Subscribe(4096, 0)
	defer sub.Close()
	if allocs := testing.AllocsPerRun(1000, func() { n++; tr.Tick(n) }); allocs != 0 {
		t.Fatalf("Tick allocates %v per round with a subscriber", allocs)
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("request ids %q %q must be 16 hex chars and distinct", a, b)
	}
	ctx := WithRequestID(t.Context(), a)
	if RequestIDFrom(ctx) != a {
		t.Fatal("request id lost in context")
	}
	if RequestIDFrom(t.Context()) != "" {
		t.Fatal("absent request id must read empty")
	}
}
