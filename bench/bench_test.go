package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/service"
)

// layerMetrics are the per-layer metrics a traced run prints, whether or
// not its workload exercises them.
var layerMetrics = []string{
	"ops_per_s", "latency_p50_ms",
	"client.submit_ms.p50", "client.submit_ms.p99", "client.stream_ms.p50", "client.get_ms.p50",
	"client.batch_ms.p50", "client.self_ms.p50", "client.conns_opened",
	"service.http.submit_ms.p50", "service.http.stream_ms.p50", "service.http.get_ms.p50",
	"service.http.batch_ms.p50", "service.http.self_ms.p50", "service.http.bytes_per_op",
	"engine.decode_us.p50", "engine.normalize_us.p50", "engine.validate_us.p50", "engine.hash_us.p50",
	"service.queue_wait_ms.p50", "service.queue_wait_ms.p99", "service.run_ms.p50",
	"service.worker_busy_frac", "service.cache_hit_ratio", "service.coalesced",
	"service.records_per_op", "service.job_ms.p50", "service.batch_expand_ms.p50",
	"service.batch_cells_per_s",
	"consensus.execute_ms.p50", "consensus.rounds_per_s", "consensus.rounds_per_run",
	"store.open_s", "store.load_s", "store.append_ms.p50", "store.append_ms.p99",
	"store.appends", "store.append_errors", "store.bytes_per_append",
	"runtime.alloc_bytes_per_op", "runtime.gc_cycles_per_kop", "runtime.gc_cpu_frac",
	"trace.overhead_pct", "trace.events_dropped",
}

// TestMain lets the test binary serve as the benchmark's child processes,
// as run re-executes the running binary for the prep and the probe.
func TestMain(m *testing.M) {
	if code, ok := runChild(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload briefly, untraced and traced, on a small
// prep: every check must pass and every metric must be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					w: w, seed: 7, prepRuns: 32, scratch: dir,
					warmup: 100 * time.Millisecond, measure: 300 * time.Millisecond,
				}
				want := append(slices.Clone(endToEnd), "ops_per_s", "latency_p50_ms", "latency_p99_ms",
					"error_rate", "setup_raw_s", "probe.round_trips_per_s")
				if traced {
					cfg.spans = filepath.Join(dir, "spans.ndjson.gz")
					want = layerMetrics
				}
				var out bytes.Buffer
				rep, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !rep.correct() || rep.attempted == 0 {
					t.Fatalf("checks failed after %d ops:\n%s", rep.attempted, out.String())
				}
				for _, m := range want {
					if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m) + `\s`).Match(out.Bytes()) {
						t.Errorf("metric %s not printed", m)
					}
				}
				if traced {
					if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

func TestSummarizeRefusesThinP99(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := range 999 {
		xs = append(xs, float64(i))
	}
	if s := summarize(xs); s.p99OK {
		t.Fatalf("p99 %v reported from %d samples, only %d beyond it", s.p99, s.n, s.n-nearestRank(s.n, 0.99))
	}
	s := summarize(append(xs, 999))
	if !s.p99OK || s.p99 != 989 || s.p50 != 499 {
		t.Fatalf("1000 samples: p50 %v p99 %v (ok %v), want 499 and 989", s.p50, s.p99, s.p99OK)
	}
}

func TestCorruptedResultFailsCheck(t *testing.T) {
	w, _ := workloadByName("hit")
	res := service.RunResult{Rounds: 2, Reason: "consensus", Winner: 3, WinnerCount: 5000, Seed: 7}
	enc, _ := json.Marshal(res)
	c := &benchClient{h: &harness{config: config{w: w}, ref: map[string]refRun{"hash": {seed: 7, result: enc}}}}
	view := service.JobView{ID: "r-1", SpecHash: "hash", Status: service.StatusDone, CacheHit: true, Records: 3}
	check := func(r service.RunResult) error {
		final := view
		final.Result = &r
		return c.checkSingle(7, w.spec(7), view, final, 3, -1)
	}
	if err := check(res); err != nil {
		t.Fatalf("intact hit rejected: %v", err)
	}
	corrupt := res
	corrupt.Winner = 4
	if check(corrupt) == nil {
		t.Fatal("a hit whose result differs from the reloaded run passed")
	}

	// A served miss whose result a re-execution does not reproduce.
	miss, _ := workloadByName("miss-small")
	spec := miss.spec(11)
	got, err := service.Execute(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got.Rounds++
	h := &harness{clients: []*benchClient{{samples: []sample{{spec: spec, result: got}}}}}
	rep := &report{}
	if h.reexecute(rep); rep.correct() {
		t.Fatal("a miss the engine does not reproduce passed re-execution")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and result-line metrics defined here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		json, def []string
	}{
		{"workloads", names(b.Workloads), ws},
		{"end_to_end", names(b.EndToEnd), endToEnd},
		{"per_layer", names(b.PerLayer), perLayerJSON},
	} {
		if !slices.Equal(c.json, c.def) {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark defines %v", c.what, c.json, c.def)
		}
	}
}
