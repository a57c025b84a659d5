package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/engine"
	"repro/multidim"
	"repro/service"
	"repro/service/client"
)

// newHTTPService is service.New for tests without a failing store path.
func newHTTPService(t *testing.T, opts service.Options) *service.Service {
	t.Helper()
	s, err := service.New(opts)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	return s
}

// TestEndToEndHTTP drives the full acceptance flow over httptest: submit a
// two-value median run with n=1e5 via the typed client, poll to completion,
// stream the NDJSON records, verify the cache-hit counter on resubmission.
func TestEndToEndHTTP(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	spec := service.Spec{Seed: 1, Payload: &service.MedianSpec{
		Init: service.InitSpec{Kind: "twovalue", N: 100000},
		Rule: service.RuleSpec{Name: "median"},
	}}
	view, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, view.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone || final.Result == nil {
		t.Fatalf("run did not complete: %+v", final)
	}
	if final.Result.Reason != "consensus" || final.Result.WinnerCount != 100000 {
		t.Fatalf("run did not converge: %+v", final.Result)
	}
	if final.Result.Winner != 1 && final.Result.Winner != 2 {
		t.Fatalf("winner %d not an initial value", final.Result.Winner)
	}

	var streamed []service.RoundRecord
	if err := c.Stream(ctx, view.ID, func(r service.RoundRecord) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != final.Result.Rounds+1 {
		t.Fatalf("streamed %d records, want initial state + one per round (%d)", len(streamed), final.Result.Rounds+1)
	}
	for i, r := range streamed {
		if r.Round != i || r.N != 100000 {
			t.Fatalf("bad stream record %d: %+v", i, r)
		}
	}

	// Identical resubmission: answered from the cache, visible in metrics.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Status != service.StatusDone {
		t.Fatalf("resubmission must be a cache hit: %+v", again)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1", m.CacheHits)
	}
	if m.Workers != 2 || m.JobsSubmitted != 2 {
		t.Fatalf("unexpected metrics: %+v", m)
	}

	runs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("listed %d runs, want 2", len(runs))
	}

	// Unknown ids are 404s.
	if _, err := c.Get(ctx, "r-999"); err == nil {
		t.Fatal("get of unknown id must fail")
	}
}

// TestExactEndToEndHTTP: POST /v1/runs with kind exact answers from the
// analytic chain — no simulation behind the result — and streams one
// absorption-CDF record per propagated round through the same NDJSON
// surface as every simulated run. Resubmission hits the cache like any
// other kind.
func TestExactEndToEndHTTP(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	spec := service.Spec{Kind: service.KindExact, Payload: &service.ExactSpec{N: 60, Start: 20}}
	view, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, view.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone || final.Result == nil {
		t.Fatalf("run did not complete: %+v", final)
	}
	res := final.Result
	if res.Reason != "analytic" || res.Exact == nil {
		t.Fatalf("exact run must report analytic results: %+v", res)
	}
	if res.Exact.ExpectedRounds <= 0 || res.Exact.ExpectedRounds > 100 {
		t.Fatalf("implausible expected rounds %v", res.Exact.ExpectedRounds)
	}
	if res.Exact.WinProbability <= 0 || res.Exact.WinProbability >= 0.5 {
		t.Fatalf("start 20 of 60 must give the low value a win probability in (0, 0.5), got %v",
			res.Exact.WinProbability)
	}

	var streamed []service.RoundRecord
	if err := c.Stream(ctx, view.ID, func(r service.RoundRecord) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.Rounds+1 {
		t.Fatalf("streamed %d records, want %d", len(streamed), res.Rounds+1)
	}
	for i, r := range streamed {
		if r.Round != i || r.N != 60 {
			t.Fatalf("bad stream record %d: %+v", i, r)
		}
		if r.Absorbed < 0 || r.Absorbed > 1 {
			t.Fatalf("record %d absorbed %v outside [0, 1]", i, r.Absorbed)
		}
		if i > 0 && r.Absorbed < streamed[i-1].Absorbed {
			t.Fatalf("absorption CDF decreases at record %d", i)
		}
	}
	if last := streamed[len(streamed)-1].Absorbed; last < 0.999 {
		t.Fatalf("stream ends with CDF %v, want near 1", last)
	}

	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("identical exact resubmission must be a cache hit: %+v", again)
	}
}

// TestBatchEndToEndHTTP drives the batch acceptance flow over httptest: a
// 2-axis grid is expanded server-side, streamed cell by cell, and a second
// identical submission is served entirely from the cache.
func TestBatchEndToEndHTTP(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	req := service.BatchRequest{
		Template: service.Spec{Seed: 1, Payload: &service.MedianSpec{
			Init: service.InitSpec{Kind: "twovalue"},
			Rule: service.RuleSpec{Name: "median"},
		}},
		Axes: []service.Axis{
			{Param: "n", Values: []float64{500, 1000}},
			{Param: "seed", Values: []float64{1, 2}},
		},
	}
	var first []service.BatchCellRecord
	if err := c.Batch(ctx, req, func(r service.BatchCellRecord) error {
		first = append(first, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 4 {
		t.Fatalf("streamed %d cells, want 4", len(first))
	}
	for i, r := range first {
		if r.Index != i || r.Status != service.StatusDone || r.Result == nil {
			t.Fatalf("bad cell record %d: %+v", i, r)
		}
		if r.Result.Reason != "consensus" {
			t.Fatalf("cell %d did not converge: %+v", i, r.Result)
		}
	}

	var second []service.BatchCellRecord
	if err := c.Batch(ctx, req, func(r service.BatchCellRecord) error {
		second = append(second, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if !r.CacheHit || r.Status != service.StatusDone {
			t.Fatalf("second batch cell %d must be a cache hit: %+v", i, r)
		}
		if r.SpecHash != first[i].SpecHash {
			t.Fatalf("cell %d hash changed between identical batches", i)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.BatchesRun != 2 || m.BatchCellsExpanded != 8 || m.BatchCellsCached != 4 {
		t.Fatalf("batch metrics: %+v", m)
	}

	// Invalid grids are rejected before any cell runs.
	bad := service.BatchRequest{Template: req.Template, Axes: []service.Axis{{Param: "warp", Values: []float64{1}}}}
	if err := c.Batch(ctx, bad, func(service.BatchCellRecord) error { return nil }); err == nil {
		t.Fatal("invalid batch must be rejected")
	}
}

// TestBodySizeCap: submissions beyond MaxBodyBytes get 413 on both submit
// endpoints.
func TestBodySizeCap(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1, MaxBodyBytes: 256})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"init":{"kind":"blocks","counts":[` + strings.Repeat("1,", 400) + `1]},"rule":{"name":"median"}}`
	for _, path := range []string{"/v1/runs", "/v1/batches"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(big)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with oversized body: status %d, want 413", path, resp.StatusCode)
		}
	}
	// A small spec still fits.
	small := `{"init":{"kind":"twovalue","n":100},"rule":{"name":"median"},"seed":1}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader([]byte(small)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small spec: status %d, want 202", resp.StatusCode)
	}
}

// TestSubmitRejectsTrailingData: a submit or batch body holds exactly one
// JSON value. Trailing bytes get a 400 naming the body, where before they
// were ignored, and with them a second spec the caller meant to submit.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"init":{"kind":"twovalue","n":100},"rule":{"name":"median"},"seed":1}`
	batch := `{"template":` + spec + `,"axes":[{"param":"seed","values":[1,2]}]}`
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for _, c := range []struct{ path, body, want string }{
		{"/v1/runs", spec + ` garbage`, "invalid spec JSON"},
		{"/v1/runs", spec + `{"init":{"kind":"twovalue","n":50}}`, "invalid spec JSON"},
		{"/v1/batches", batch + ` garbage`, "invalid batch JSON"},
	} {
		code, msg := post(c.path, c.body)
		if code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
			t.Errorf("POST %s %s: status %d %s, want 400 %q", c.path, c.body, code, msg, c.want)
		}
	}
	// Trailing whitespace is not data.
	for path, body := range map[string]string{"/v1/runs": spec + "\n", "/v1/batches": batch + " \n"} {
		if code, msg := post(path, body); code != http.StatusAccepted && code != http.StatusOK {
			t.Errorf("POST %s with trailing whitespace: status %d %s", path, code, msg)
		}
	}
}

// TestSubmitRateLimit: the token bucket sheds excess submit requests with
// 429 and a Retry-After hint, and counts them in the metrics.
func TestSubmitRateLimit(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1, SubmitRate: 0.001, SubmitBurst: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"init":{"kind":"twovalue","n":100},"rule":{"name":"median"},"seed":1}`
	codes := make([]int, 0, 3)
	var lastResp *http.Response
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
		lastResp = resp
	}
	if codes[0] != http.StatusAccepted || codes[1] != http.StatusAccepted {
		t.Fatalf("burst submissions must be admitted, got %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third submission must be rate-limited, got %v", codes)
	}
	if lastResp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}
	if m := s.Metrics(); m.RateLimited != 1 {
		t.Fatalf("rate_limited = %d, want 1", m.RateLimited)
	}
	// GET endpoints are not rate-limited.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list while rate-limited: status %d, want 200", resp.StatusCode)
	}
}

// TestMetricsContentNegotiation: JSON by default, Prometheus text format
// for scrapers that ask for text/plain or OpenMetrics.
func TestMetricsContentNegotiation(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.Header.Get("Content-Type"), string(body)
	}

	ct, body := get("")
	if !strings.Contains(ct, "application/json") || !strings.Contains(body, `"jobs_submitted"`) {
		t.Fatalf("default metrics must stay JSON: %s %q", ct, body)
	}
	ct, body = get("application/json")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("explicit JSON accept must win: %s", ct)
	}
	ct, body = get("text/plain")
	if !strings.Contains(ct, "text/plain") ||
		!strings.Contains(body, "# TYPE consensusd_jobs_submitted_total counter") ||
		!strings.Contains(body, "consensusd_batch_cells_expanded_total") {
		t.Fatalf("text/plain accept must yield Prometheus exposition: %s %q", ct, body)
	}
	ct, _ = get("application/openmetrics-text; version=1.0.0, text/plain;q=0.5")
	if !strings.Contains(ct, "text/plain") {
		t.Fatalf("openmetrics accept must yield Prometheus exposition: %s", ct)
	}
}

// TestStreamFollowsLiveRun starts streaming before the run finishes and
// must still see every record exactly once.
func TestStreamFollowsLiveRun(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	// voter on the ball engine converges in Θ(n) rounds of Θ(n) work —
	// slow enough that the stream attaches while the run is live (auto
	// would pick the count engine, whose rounds cost O(1)).
	spec := service.Spec{Seed: 3, MaxRounds: 1 << 20, Payload: &service.MedianSpec{
		Init:   service.InitSpec{Kind: "twovalue", N: 500},
		Rule:   service.RuleSpec{Name: "voter"},
		Engine: "ball",
	}}
	view, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []service.RoundRecord
	if err := c.Stream(ctx, view.ID, func(r service.RoundRecord) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, view.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone || final.Result == nil {
		t.Fatalf("run failed: %+v", final)
	}
	if len(streamed) != final.Result.Rounds+1 {
		t.Fatalf("streamed %d records, want %d", len(streamed), final.Result.Rounds+1)
	}
	for i, r := range streamed {
		if r.Round != i {
			t.Fatalf("stream out of order at %d: %+v", i, r)
		}
	}
}

// TestDoneStreamHasContentLength: a done job's stream is not flushed, so
// its few lines come back in one response with a Content-Length rather
// than chunked, and they are the run's records.
func TestDoneStreamHasContentLength(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	view, err := client.New(ts.URL).Submit(ctx, service.Spec{Seed: 5, Payload: &service.MedianSpec{
		Init: service.InitSpec{Kind: "twovalue", N: 1000},
		Rule: service.RuleSpec{Name: "median"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.New(ts.URL).Wait(ctx, view.ID, time.Millisecond)
	if err != nil || final.Status != service.StatusDone {
		t.Fatalf("run did not finish: %+v, %v", final, err)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("done stream: Content-Length %d, Transfer-Encoding %v, %d body bytes",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if lines := bytes.Count(body, []byte{'\n'}); lines != final.Result.Rounds+1 {
		t.Fatalf("done stream has %d lines, want %d", lines, final.Result.Rounds+1)
	}
}

// TestEnginesEndpoint: GET /v1/engines serves every registered kind's
// descriptor, sorted by kind, independent of registration order, and the
// content matches the in-process registry exactly.
func TestEnginesEndpoint(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	descriptors, err := client.New(ts.URL).Engines(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(descriptors))
	for i, d := range descriptors {
		kinds[i] = d.Kind
	}
	want := []string{"exact", "gossip", "median", "multidim", "robust"}
	if len(kinds) < 5 {
		t.Fatalf("engines endpoint lists %d kinds, want at least 5", len(kinds))
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("engines endpoint kinds %v, want sorted %v", kinds, want)
		}
	}
	// The wire document is exactly the registry's view (stability across
	// registration order is the registry's sort guarantee).
	local := engine.Descriptors()
	wire, _ := json.Marshal(descriptors)
	reg, _ := json.Marshal(local)
	if string(wire) != string(reg) {
		t.Fatalf("wire descriptors diverge from the registry:\n%s\nvs\n%s", wire, reg)
	}
	for _, d := range descriptors {
		if len(d.Params) == 0 || d.Summary == "" {
			t.Fatalf("kind %s descriptor is empty: %+v", d.Kind, d)
		}
	}
}

// TestGossipEndToEndHTTP: a gossip spec with a named drop selector
// submits, streams round records, and a long one cancels mid-run over
// DELETE — the acceptance flow for the first-class gossip kind.
func TestGossipEndToEndHTTP(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	spec := service.Spec{Seed: 5, Kind: service.KindGossip, Payload: &service.GossipSpec{
		Init:      service.InitSpec{Kind: "twovalue", N: 600},
		CapFactor: 0.3,
		Selector:  "drop-value:1",
	}}
	view, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, view.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone || final.Result == nil {
		t.Fatalf("gossip run did not complete: %+v", final)
	}
	if final.Result.Reason != "consensus" || final.Result.Messages == nil {
		t.Fatalf("gossip result incomplete: %+v", final.Result)
	}
	var streamed []service.RoundRecord
	if err := c.Stream(ctx, view.ID, func(r service.RoundRecord) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != final.Result.Rounds+1 {
		t.Fatalf("streamed %d records, want %d", len(streamed), final.Result.Rounds+1)
	}

	// A slow voter-rule gossip run cancels mid-simulation via DELETE.
	slow := service.Spec{Seed: 2, Kind: service.KindGossip, MaxRounds: 1 << 18,
		Payload: &service.GossipSpec{
			Init:     service.InitSpec{Kind: "twovalue", N: 2000},
			Rule:     service.RuleSpec{Name: "voter"},
			Selector: "drop-value:1",
		}}
	view, err = c.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Get(ctx, view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == service.StatusDone {
			t.Fatal("gossip run finished before it could be cancelled")
		}
		if v.Records > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gossip run never produced a record")
		}
	}
	if _, err := c.Cancel(ctx, view.ID); err != nil {
		t.Fatal(err)
	}
	final, err = c.Wait(ctx, view.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusCancelled {
		t.Fatalf("status = %s, want cancelled (mid-run)", final.Status)
	}
	if final.Records == 0 {
		t.Fatal("a mid-run cancel must leave the rounds streamed so far")
	}
}

// TestBearerTokenAuth: with Options.AuthToken set, mutating endpoints
// demand the token (401 otherwise) while read-only endpoints stay open.
func TestBearerTokenAuth(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 1, AuthToken: "s3cret"})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	spec := service.Spec{Seed: 1, Payload: &service.MedianSpec{
		Init: service.InitSpec{Kind: "twovalue", N: 100},
		Rule: service.RuleSpec{Name: "median"},
	}}

	// Unauthenticated and wrong-token submits are 401.
	for _, token := range []string{"", "wrong"} {
		c := client.New(ts.URL)
		c.Token = token
		if _, err := c.Submit(ctx, spec); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("submit with token %q: %v, want 401", token, err)
		}
		if err := c.Batch(ctx, service.BatchRequest{Template: spec,
			Axes: []service.Axis{{Param: "seed", Values: []float64{1}}}},
			func(service.BatchCellRecord) error { return nil }); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("batch with token %q: %v, want 401", token, err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read-only list must stay open, got %d", resp.StatusCode)
	}

	// The right token passes end to end, DELETE included.
	c := client.New(ts.URL)
	c.Token = "s3cret"
	view, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, view.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Cancelling a finished run through an unauthenticated client is 401
	// before it is 409.
	anon := client.New(ts.URL)
	if _, err := anon.Cancel(ctx, view.ID); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("unauthenticated cancel: %v, want 401", err)
	}
	if _, err := c.Cancel(ctx, view.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("authenticated cancel of finished run: %v, want 409", err)
	}
}

// TestBillionCountEndToEndHTTP is the acceptance run of the count-level
// hot path: an n = 10⁹ multidim spec completes through the HTTP service
// under the default admission limit because the count engine only ever
// materializes the O(k·d) tuple distribution — while the same population
// pinned to the per-process engine is rejected up front. Both adversary
// states are exercised: a clean run converging to consensus, and a run
// under the count-level noise adversary capped by max rounds.
func TestBillionCountEndToEndHTTP(t *testing.T) {
	s := newHTTPService(t, service.Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	const n = 1_000_000_000
	init := multidim.InitSpec{Kind: "random", N: n, D: 2, M: 2, Seed: 3}

	// Per-process at this n would need ~n·d states: admission must refuse.
	if _, err := c.Submit(ctx, service.Spec{Kind: service.KindMultidim, Seed: 1, Payload: &service.MultidimSpec{
		Init: init, Engine: multidim.EngineProcess,
	}}); err == nil || !strings.Contains(err.Error(), "materialized size") {
		t.Fatalf("per-process n=1e9 must be rejected by admission, got %v", err)
	}

	// Clean count run: admitted, converges, winner count is the full 10⁹.
	view, err := c.Submit(ctx, service.Spec{Kind: service.KindMultidim, Seed: 1, Payload: &service.MultidimSpec{
		Init: init, Engine: multidim.EngineCount,
	}})
	if err != nil {
		t.Fatalf("count n=1e9 submit: %v", err)
	}
	final, err := c.Wait(ctx, view.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone || final.Result == nil {
		t.Fatalf("run did not complete: %+v", final)
	}
	if final.Result.Reason != "consensus" || final.Result.WinnerCount != n {
		t.Fatalf("run did not converge on the full population: %+v", final.Result)
	}
	var streamed []service.RoundRecord
	if err := c.Stream(ctx, view.ID, func(r service.RoundRecord) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != final.Result.Rounds+1 {
		t.Fatalf("streamed %d records, want %d", len(streamed), final.Result.Rounds+1)
	}
	for i, r := range streamed {
		if r.Round != i || r.N != n || r.Support < 1 || r.Support > 4 {
			t.Fatalf("bad stream record %d: %+v", i, r)
		}
	}

	// Auto resolves to count here (support bound 4 ≪ n) even under the
	// noise adversary, which has a count-level implementation. The
	// adversary keeps the run alive, so cap the rounds.
	adv, err := c.Submit(ctx, service.Spec{Kind: service.KindMultidim, Seed: 1, MaxRounds: 64, Payload: &service.MultidimSpec{
		Init:      init,
		Adversary: &service.MultidimAdversarySpec{Name: "noise"},
	}})
	if err != nil {
		t.Fatalf("adversarial n=1e9 submit: %v", err)
	}
	advFinal, err := c.Wait(ctx, adv.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if advFinal.Status != service.StatusDone || advFinal.Result == nil {
		t.Fatalf("adversarial run did not complete: %+v", advFinal)
	}
	if advFinal.Result.Rounds != 64 {
		t.Fatalf("adversarial run rounds = %d, want the 64-round cap", advFinal.Result.Rounds)
	}
	if advFinal.Result.WinnerCount < n/2 {
		t.Fatalf("noise budget 1 cannot hold back 10⁹ processes: %+v", advFinal.Result)
	}
}
