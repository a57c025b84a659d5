package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/service"
)

// crashDir makes TestCrashRecoveryE2E span real process boundaries: CI
// runs the service test package twice with the same directory, so the
// second invocation reopens a store written — and streams captured — by a
// previous process. Unset, the test covers the same flow in-process with
// a TempDir.
var crashDir = flag.String("crashdir", "", "shared directory for cross-process crash-recovery (CI runs the package twice against it)")

// recoverySpecs is one spec per registered kind, seeded and seedless,
// small enough to finish in milliseconds but long enough to stream
// several records.
var recoverySpecs = []string{
	`{"kind":"median","seed":11,"init":{"kind":"twovalue","n":4000},"rule":{"name":"median"}}`,
	`{"kind":"median","init":{"kind":"twovalue","n":1500},"rule":{"name":"kmedian","params":{"k":2}}}`, // seedless: seed derived from the hash
	`{"kind":"gossip","seed":5,"init":{"kind":"twovalue","n":400},"selector":"drop-value:1"}`,
	`{"kind":"multidim","seed":3,"init":{"kind":"random","n":256,"d":2,"m":3,"seed":9}}`,
	`{"kind":"robust","seed":7,"init":{"kind":"twovalue","n":200},"loss_prob":0.1}`,
}

// postSpec submits a raw spec body and decodes the JobView.
func postSpec(t *testing.T, url, spec string) service.JobView {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", spec, resp.StatusCode, body)
	}
	var view service.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("submit response %s: %v", body, err)
	}
	return view
}

// streamBytes fetches a run's raw NDJSON stream — the byte-for-byte unit
// of the recovery assertions.
func streamBytes(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

func waitTerminal(t *testing.T, url, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var view service.JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("poll %s: %v", body, err)
		}
		switch view.Status {
		case service.StatusDone:
			return view
		case service.StatusFailed, service.StatusCancelled:
			t.Fatalf("run %s ended %s: %s", id, view.Status, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("run did not finish in time")
	return service.JobView{}
}

func getMetrics(t *testing.T, url string) service.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitAppended polls the metrics until the store has appended want runs. A
// run turns done before its write-through to the store, so the count can
// trail a run the caller has already seen finish.
func waitAppended(t *testing.T, url string, want int64) service.MetricsSnapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := getMetrics(t, url)
		if m.StoreRecordsAppended >= want || time.Now().After(deadline) {
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashRecoveryE2E is the acceptance test for the persistent store:
// submit one run per kind against a file-backed service, stop it, reopen
// a fresh service on the same path, and require that resubmitting the
// identical specs is answered entirely from the reloaded cache — born
// done, cache_hit true, no re-execution — with NDJSON streams matching
// the pre-restart streams byte for byte.
func TestCrashRecoveryE2E(t *testing.T) {
	dir := *crashDir
	if dir == "" {
		dir = t.TempDir()
	}
	storePath := filepath.Join(dir, "runs.store")
	streamsDir := filepath.Join(dir, "streams")
	firstProcess := true
	if *crashDir != "" {
		if _, err := os.Stat(storePath); err == nil {
			firstProcess = false // a previous invocation populated the store
		}
	}

	if firstProcess {
		streams := populateAndRestart(t, storePath)
		// Persist the expected streams for a later process (CI mode).
		if err := os.MkdirAll(streamsDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, b := range streams {
			if err := os.WriteFile(filepath.Join(streamsDir, fmt.Sprintf("%d.ndjson", i)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	// Second process (CI): the store and the expected streams were written
	// by a different test-binary invocation.
	want := make([][]byte, len(recoverySpecs))
	for i := range recoverySpecs {
		b, err := os.ReadFile(filepath.Join(streamsDir, fmt.Sprintf("%d.ndjson", i)))
		if err != nil {
			t.Fatalf("first invocation left no expected stream: %v", err)
		}
		want[i] = b
	}
	verifyReloaded(t, storePath, want)
}

// populateAndRestart runs phase one and the in-process restart: execute
// every recovery spec against a store-backed service, capture the
// streams, close the service, reopen the same path and verify the
// reloaded cache serves everything. Returns the captured streams.
func populateAndRestart(t *testing.T, storePath string) [][]byte {
	s := newHTTPService(t, service.Options{Workers: 2, StorePath: storePath})
	ts := httptest.NewServer(s.Handler())
	streams := make([][]byte, len(recoverySpecs))
	ids := make([]string, len(recoverySpecs))
	for i, spec := range recoverySpecs {
		view := postSpec(t, ts.URL, spec)
		if view.CacheHit {
			t.Fatalf("first submission of spec %d cannot be a cache hit", i)
		}
		ids[i] = view.ID
	}
	for i := range recoverySpecs {
		final := waitTerminal(t, ts.URL, ids[i])
		if final.Result == nil {
			t.Fatalf("run %d finished without a result", i)
		}
		streams[i] = streamBytes(t, ts.URL, ids[i])
		if len(bytes.TrimSpace(streams[i])) == 0 {
			t.Fatalf("run %d streamed nothing", i)
		}
	}
	m := waitAppended(t, ts.URL, int64(len(recoverySpecs)))
	if m.StoreRecordsAppended != int64(len(recoverySpecs)) {
		t.Fatalf("store_records_appended = %d, want %d", m.StoreRecordsAppended, len(recoverySpecs))
	}
	if m.StoreAppendErrors != 0 {
		t.Fatalf("store_append_errors = %d", m.StoreAppendErrors)
	}
	// Stop the daemon. Close drains workers and fsyncs the store; the
	// crash-mid-append case is covered by the store package's truncation
	// and bit-flip recovery tests.
	ts.Close()
	s.Close()

	verifyReloaded(t, storePath, streams)
	return streams
}

// storeFrameSizes walks the raw store file (16-byte header, then frames
// of 4B length + 4B CRC + payload) and returns each frame's on-disk size.
func storeFrameSizes(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for off := 16; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > len(data) {
			break
		}
		sizes = append(sizes, int64(8+n))
		off += 8 + n
	}
	return sizes
}

// TestRetentionRestartE2E is the acceptance test for retention GC across a
// restart: a store populated with one run per kind is reopened under a
// -store-max-bytes budget sized to keep only the newest two records. The
// daemon must come up with the store trimmed to the budget, serve the
// retained runs as born-done cache hits, and re-run the dropped ones.
// With -crashdir the populated store comes from a different process.
func TestRetentionRestartE2E(t *testing.T) {
	// Source store: the shared crashdir one when a previous invocation (or
	// process) populated it, else populate our own. Either way the
	// retention phase runs against a private copy so the shared fixture
	// stays intact for other tests.
	src := filepath.Join(*crashDir, "runs.store")
	if *crashDir == "" {
		dir := t.TempDir()
		src = filepath.Join(dir, "runs.store")
		populateAndRestart(t, src)
	} else if _, err := os.Stat(src); err != nil {
		src = filepath.Join(t.TempDir(), "runs.store")
		populateAndRestart(t, src)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "runs.store")
	if err := os.WriteFile(storePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sizes := storeFrameSizes(t, storePath)
	if len(sizes) < len(recoverySpecs) {
		t.Fatalf("store holds %d frames, want >= %d", len(sizes), len(recoverySpecs))
	}
	// Budget exactly the newest two frames. MaxBytes keeps the newest-first
	// suffix that fits, so everything older is dropped at open.
	const keep = 2
	var budget int64
	for _, sz := range sizes[len(sizes)-keep:] {
		budget += sz
	}
	dropped := int64(len(sizes) - keep)

	s := newHTTPService(t, service.Options{Workers: 2, StorePath: storePath, StoreMaxBytes: budget})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Map each recovery spec to its canonical hash via a throwaway
	// in-memory service — hashes are canonical, so they match the
	// store-backed service's.
	hashOf := make(map[string]int, len(recoverySpecs))
	{
		tmp := newHTTPService(t, service.Options{Workers: 2})
		tts := httptest.NewServer(tmp.Handler())
		for i, spec := range recoverySpecs {
			hashOf[postSpec(t, tts.URL, spec).SpecHash] = i
		}
		tts.Close()
		tmp.Close()
	}

	m := getMetrics(t, ts.URL)
	if m.StoreRecordsLoaded != keep {
		t.Fatalf("store_records_loaded = %d under budget %d, want %d", m.StoreRecordsLoaded, budget, keep)
	}
	if m.StoreGCRecordsDropped != dropped {
		t.Fatalf("store_gc_records_dropped = %d, want %d", m.StoreGCRecordsDropped, dropped)
	}
	if m.StoreGCCompactions < 1 {
		t.Fatalf("store_gc_compactions = %d, want >= 1", m.StoreGCCompactions)
	}
	fi, err := os.Stat(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if framed := fi.Size() - 16; framed > budget {
		t.Fatalf("store framed region %d bytes exceeds budget %d after GC", framed, budget)
	}

	// The reloaded history identifies which runs survived the budget.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Runs []service.JobView `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Runs) != keep {
		t.Fatalf("reloaded history lists %d runs under budget, want %d", len(listed.Runs), keep)
	}
	retained := map[int]bool{}
	for _, v := range listed.Runs {
		i, ok := hashOf[v.SpecHash]
		if !ok {
			t.Fatalf("reloaded run %s has unknown spec hash %s", v.ID, v.SpecHash)
		}
		retained[i] = true
	}

	// Retained specs first: they must be born-done cache hits. Submitting
	// them first matters — a cache hit appends nothing, while the re-runs
	// below push the store back over budget and background GC then evicts
	// the oldest entries again.
	for i, spec := range recoverySpecs {
		if !retained[i] {
			continue
		}
		view := postSpec(t, ts.URL, spec)
		if !view.CacheHit || view.Status != service.StatusDone || view.Result == nil {
			t.Fatalf("retained spec %d must be a born-done cache hit: %+v", i, view)
		}
	}
	// The dropped specs re-run and are committed again — the store stays
	// the single source of truth for the next restart.
	for i, spec := range recoverySpecs {
		if retained[i] {
			continue
		}
		view := postSpec(t, ts.URL, spec)
		if view.CacheHit {
			t.Fatalf("dropped spec %d served from cache after GC", i)
		}
		waitTerminal(t, ts.URL, view.ID)
	}
	if m = waitAppended(t, ts.URL, dropped); m.StoreRecordsAppended != dropped {
		t.Fatalf("store_records_appended = %d after re-runs, want %d", m.StoreRecordsAppended, dropped)
	}
	// The re-run appends overflow the budget and kick background GC. Its
	// steady state is framed <= budget + compaction threshold (default
	// budget/4): excess below the threshold does not trigger a rewrite.
	slack := budget / 4
	if slack < 1 {
		slack = 1
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err = os.Stat(storePath); err != nil {
			t.Fatal(err)
		}
		if fi.Size()-16 <= budget+slack {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store framed region %d bytes never settled under budget+threshold %d",
				fi.Size()-16, budget+slack)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyReloaded opens a fresh service on an existing store and asserts
// that identical submissions are served from the reloaded cache without
// re-running, byte-identical streams included.
func verifyReloaded(t *testing.T, storePath string, want [][]byte) {
	s := newHTTPService(t, service.Options{Workers: 2, StorePath: storePath})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m := getMetrics(t, ts.URL)
	if m.StoreRecordsLoaded < int64(len(recoverySpecs)) {
		t.Fatalf("store_records_loaded = %d, want >= %d", m.StoreRecordsLoaded, len(recoverySpecs))
	}

	// The job history survived the restart: the pre-restart runs are
	// listed, done, with their results.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Runs []service.JobView `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Runs) < len(recoverySpecs) {
		t.Fatalf("reloaded history lists %d runs, want >= %d", len(listed.Runs), len(recoverySpecs))
	}
	preIDs := map[string]bool{}
	for _, v := range listed.Runs {
		preIDs[v.ID] = true
		if v.Status != service.StatusDone || v.Result == nil {
			t.Fatalf("reloaded job %s not done-with-result: %+v", v.ID, v)
		}
	}

	for i, spec := range recoverySpecs {
		view := postSpec(t, ts.URL, spec)
		if !view.CacheHit || view.Status != service.StatusDone || view.Result == nil {
			t.Fatalf("spec %d after restart must be a born-done cache hit: %+v", i, view)
		}
		if preIDs[view.ID] {
			t.Fatalf("fresh submission reused reloaded job id %s", view.ID)
		}
		if got := streamBytes(t, ts.URL, view.ID); !bytes.Equal(got, want[i]) {
			t.Fatalf("spec %d stream changed across restart:\n got  %d bytes: %.200s\n want %d bytes: %.200s",
				i, len(got), got, len(want[i]), want[i])
		}
	}

	m = getMetrics(t, ts.URL)
	if m.CacheHits < int64(len(recoverySpecs)) {
		t.Fatalf("cache_hits = %d after resubmission, want >= %d", m.CacheHits, len(recoverySpecs))
	}
	// Nothing re-ran: the cache-hit path never touches a worker, so no
	// record was re-appended to the store by this process.
	if m.StoreRecordsAppended != 0 {
		t.Fatalf("store_records_appended = %d after pure cache hits, want 0", m.StoreRecordsAppended)
	}
}
