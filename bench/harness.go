package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/service"
	"repro/service/client"
	"repro/service/store"
)

const (
	// clients is the closed loop's concurrency; seeds tag their client's
	// index below prepTag.
	clients = 2
	// setupRestarts is how often set-up restarts the service on the
	// prepped store; setup_s is the median, as one reload is too noisy.
	setupRestarts = 15
	// measureSlice is about how long each slice of the untraced measure
	// window is: a probe slice of probeShare of it, then the workload.
	// Half-second slices track the host's drift more closely than
	// two-second ones: the ratios spread less from run to run.
	measureSlice = 500 * time.Millisecond
	probeShare   = 0.2
	// probeRefRPS is the reference host speed setup_s is scaled to: the
	// probe's round trips per second on the machine whose measurements
	// fixed BENCHMARK.json's bounds, in a quiet spell.
	probeRefRPS = 20000
	// batchFresh is how many new seeds a batch op adds to as many
	// repeated ones.
	batchFresh = 8
	// hitSetSize specs are drawn from the newest cacheSize prepped runs,
	// which the reloaded service's default 1024-entry cache holds.
	hitSetSize = 512
	cacheSize  = 1024
	// missSampleEvery: one miss in this many is re-run through
	// service.Execute after the load and must give the same result.
	missSampleEvery = 64
	// Replays after the traced window: the engine codec on up to
	// replayCap op specs, service.Execute on executeReplays of them and
	// ExpandBatch on up to expandReplays 16-seed sweeps.
	replayCap      = 4096
	executeReplays = 64
	expandReplays  = 256
	opTimeout      = 2 * time.Minute
)

type config struct {
	w        workload
	seed     uint64
	warmup   time.Duration
	measure  time.Duration
	prepRuns int
	// spans is the span file of a traced run; "" runs untraced.
	spans string
	// scratch is the directory on local disk the run's store goes under.
	scratch string
}

type refRun struct {
	seed   uint64
	result []byte // JSON encoding of the reloaded result
}

type harness struct {
	config
	path string
	// ref holds every prepped run as reloaded from the store, by spec hash;
	// newest lists their hashes newest first.
	ref      map[string]refRun
	newest   []string
	hitSeeds []uint64

	tr      *tracer // nil when untraced
	svc     *service.Service
	srv     *httptest.Server
	clients []*benchClient

	setupS, openS, loadS []float64
}

// run executes one workload: prep, set-up, warm-up, the measure window(s)
// and the post-checks. An untraced run alternates the host probe with the
// workload over the measure time and reports the end-to-end metrics; a
// traced run splits the measure time into an untraced and a traced half
// and reports the per-layer metrics.
func run(cfg config, out io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h := &harness{config: cfg, path: filepath.Join(dir, "runs.store")}
	if cfg.spans != "" {
		h.tr = newTracer()
	}
	fmt.Fprintf(out, "workload %s seed %d: %d clients, GOMAXPROCS %d, prep %d runs, warm-up %v, measure %v, traced %v\n",
		cfg.w.name, cfg.seed, clients, runtime.GOMAXPROCS(0), cfg.prepRuns, cfg.warmup, cfg.measure, h.tr != nil)

	if err := prepInChild(h.path, cfg.seed, cfg.prepRuns); err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	if err := h.loadReference(); err != nil {
		return nil, err
	}
	if err := h.setUp(); err != nil {
		h.shutdown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer h.shutdown()
	setupRSS, _ := peakRSSMiB()

	rep := &report{}
	if h.tr == nil {
		p, err := startProbe()
		if err != nil {
			return nil, fmt.Errorf("start probe: %w", err)
		}
		wins, probes, err := h.measureSliced(p)
		if cerr := p.close(); err == nil && cerr != nil {
			err = fmt.Errorf("probe: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
		h.endToEnd(rep, wins, probes)
		// Before the post-checks, which reload the whole store.
		if mib, ok := peakRSSMiB(); ok {
			rep.add("peak_rss_mb", "MiB", mib, fmt.Sprintf("getrusage max RSS at the end of the window; %.1f MiB after set-up", setupRSS))
		} else {
			rep.na("peak_rss_mb", "MiB", "getrusage unavailable")
		}
	} else {
		h.window(cfg.warmup)
		runtime.GC()
		plain := h.window(cfg.measure / 2)
		runtime.GC()
		h.tr.start(h.svc)
		traced := h.window(cfg.measure / 2)
		h.tr.stop()
		spans := h.tr.assemble()
		h.perLayer(rep, plain, traced, spans)
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), cfg.spans)
	}
	rechecked := h.reexecute(rep)
	h.shutdown()
	reloaded := h.verifyStore(rep)
	for _, c := range h.clients {
		rep.violations = append(rep.violations, c.violations...)
	}
	fmt.Fprintf(out, "checks: %d misses re-executed, %d runs reloaded from the closed store\n", rechecked, reloaded)
	rep.print(out)
	return rep, nil
}

// prep persists n runs of prepSpec with seeds from the workload seed,
// through a throwaway service driven by in-process Submit.
func prep(path string, seed uint64, n int) error {
	svc, err := service.New(service.Options{StorePath: path, QueueDepth: n})
	if err != nil {
		return err
	}
	defer svc.Close()
	ids := make([]string, 0, n)
	for _, s := range prepSeeds(seed, n) {
		v, err := svc.Submit(prepSpec(s))
		if err != nil {
			return err
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		for {
			_, terminal, notify, err := svc.Records(id, math.MaxInt)
			if err != nil {
				return err
			}
			if terminal {
				break
			}
			<-notify
		}
		if v, err := svc.Get(id); err != nil || v.Status != service.StatusDone {
			return fmt.Errorf("prep job %s ended %s %v", id, v.Status, err)
		}
	}
	return nil
}

// loadReference reads the prepped runs back from the store: the results
// hit ops must reproduce byte for byte, and the newest runs the hit set is
// drawn from.
func (h *harness) loadReference() error {
	l, err := store.Open(h.path)
	if err != nil {
		return err
	}
	defer l.Close()
	h.ref = map[string]refRun{}
	var order []string
	err = l.Load(func(r store.Run) error {
		enc, err := json.Marshal(r.Result)
		h.ref[r.SpecHash] = refRun{seed: r.Spec.Seed, result: enc}
		order = append(order, r.SpecHash)
		return err
	})
	if err != nil {
		return err
	}
	if len(h.ref) != h.prepRuns {
		return fmt.Errorf("store holds %d prepped runs, want %d", len(h.ref), h.prepRuns)
	}
	for i := len(order) - 1; i >= 0; i-- {
		h.newest = append(h.newest, order[i])
	}
	cands := h.newest[:min(cacheSize, len(h.newest))]
	g := stream(h.seed, purposeHitSet, 0)
	for _, i := range g.Perm(len(cands))[:min(hitSetSize, len(cands)/2)] {
		h.hitSeeds = append(h.hitSeeds, h.ref[cands[i]].seed)
	}
	return nil
}

// setUp restarts the service on the prepped store setupRestarts times,
// timing each from service.New to the first healthy response, keeps the
// last instance serving and connects the clients to it.
func (h *harness) setUp() error {
	for i := 0; i < setupRestarts; i++ {
		h.shutdown()
		d, err := h.start()
		if err != nil {
			return err
		}
		h.setupS = append(h.setupS, d.Seconds())
	}
	for i := 0; i < clients; i++ {
		c := newBenchClient(h, i)
		if h.w.batch {
			// The first two batches repeat prepped runs, still cached.
			c.results = map[uint64][]byte{}
			for g := 2 * i; g < 2*i+2; g++ {
				var group []uint64
				for _, hash := range h.newest[g*batchFresh : (g+1)*batchFresh] {
					seed := h.ref[hash].seed
					group = append(group, seed)
					c.results[seed] = h.ref[hash].result
				}
				c.repeats = append(c.repeats, group)
			}
		}
		h.clients = append(h.clients, c)
	}
	return nil
}

func (h *harness) start() (time.Duration, error) {
	start := time.Now()
	opts := service.Options{StorePath: h.path}
	var ts *timedStore
	if h.tr != nil {
		var err error
		if ts, err = openTimedStore(h.path, h.tr); err != nil {
			return 0, err
		}
		opts = service.Options{Store: ts}
	}
	svc, err := service.New(opts)
	if err != nil {
		return 0, err
	}
	handler := svc.Handler()
	if h.tr != nil {
		handler = h.tr.handler(handler)
	}
	h.svc, h.srv = svc, httptest.NewServer(handler)
	if err := healthy(h.srv.URL); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if ts != nil {
		h.openS = append(h.openS, ts.openDur.Seconds())
		h.loadS = append(h.loadS, ts.loadDur.Seconds())
	}
	return d, nil
}

// healthy polls GET /v1/healthz over a fresh connection until it answers.
func healthy(url string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := client.New(url)
	c.HTTPClient = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Health(context.Background())
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *harness) shutdown() {
	for _, c := range h.clients {
		c.conns.CloseIdleConnections()
	}
	if h.srv != nil {
		h.srv.Close()
		h.srv = nil
	}
	if h.svc != nil {
		h.svc.Close()
		h.svc = nil
	}
}

// windowResult is what all clients measured in one window, with the
// service and runtime counters around it.
type windowResult struct {
	elapsed       time.Duration
	stats         phaseStats
	before, after service.MetricsSnapshot
	rt            runtimeDelta
}

// window runs every client until the deadline, letting each finish its
// last op; throughput is over the time until the last op completed.
func (h *harness) window(d time.Duration) windowResult {
	for _, c := range h.clients {
		c.stats = phaseStats{}
	}
	res := windowResult{before: h.svc.Metrics()}
	rt := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.rt = readRuntime().sub(rt)
	res.after = h.svc.Metrics()
	for _, c := range h.clients {
		s := c.stats
		res.stats.ops += s.ops
		res.stats.failed += s.failed
		res.stats.latMS = append(res.stats.latMS, s.latMS...)
		res.stats.records += s.records
		res.stats.cells += s.cells
		res.stats.timings = append(res.stats.timings, s.timings...)
		res.stats.seeds = append(res.stats.seeds, s.seeds...)
	}
	return res
}

func (w windowResult) opsPerSec() float64 {
	return float64(w.stats.ops-w.stats.failed) / w.elapsed.Seconds()
}

// measureSliced warms the workload and the probe up, then runs the
// untraced measure window as probe slices, each followed by a workload
// slice. It returns the workload slices and the round trips per second of
// the probe slice before each.
func (h *harness) measureSliced(p *probe) ([]windowResult, []float64, error) {
	n := max(1, int(h.measure/measureSlice))
	slice := h.measure / time.Duration(n)
	probeD := time.Duration(probeShare * float64(slice))
	h.window(h.warmup)
	if _, err := p.measure(probeD); err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	runtime.GC()
	var wins []windowResult
	var probes []float64
	for range n {
		rps, err := p.measure(probeD)
		if err != nil {
			return nil, nil, fmt.Errorf("probe: %w", err)
		}
		probes = append(probes, rps)
		wins = append(wins, h.window(slice-probeD))
	}
	return wins, probes, nil
}

// endToEnd reports the end-to-end metrics of the measure window's slices,
// each slice measured against the probe slice before it: completed ops per
// probe round trip the same time would have made, and the median op
// latency in probe round-trip times (clients / round trips per second, by
// Little's law, as the probe is a closed loop of as many clients). It also
// reports the raw values.
func (h *harness) endToEnd(rep *report, wins []windowResult, probes []float64) {
	var s phaseStats
	var elapsed time.Duration
	var trips float64
	var latRel []float64
	for i, w := range wins {
		s.ops += w.stats.ops
		s.failed += w.stats.failed
		s.latMS = append(s.latMS, w.stats.latMS...)
		elapsed += w.elapsed
		trips += w.elapsed.Seconds() * probes[i]
		tripMS := 1e3 * clients / probes[i]
		for _, l := range w.stats.latMS {
			latRel = append(latRel, l/tripMS)
		}
	}
	rep.attempted, rep.failed = s.ops, s.failed
	lat := summarize(s.latMS)
	rep.add("ops_vs_probe", "ratio", float64(s.ops-s.failed)/trips, fmt.Sprintf("%d slices, %.0f probe round trips", len(wins), trips))
	rep.addP50("latency_p50_vs_probe", "ratio", summarize(latRel))
	// Set-up drifts with the host like the workload, and the set-up
	// restarts run seconds before the slices, close enough for their
	// probe rate to price them.
	probeRPS := trips / elapsed.Seconds()
	setup := medianOf(h.setupS)
	rep.add("setup_s", "s", setup*probeRPS/probeRefRPS, fmt.Sprintf("setup_raw_s at a probe rate of %d/s", probeRefRPS))
	rep.add("setup_raw_s", "s", setup, fmt.Sprintf("median of %d restarts", len(h.setupS)))
	rep.add("ops_per_s", "ops/s", float64(s.ops-s.failed)/elapsed.Seconds(), fmt.Sprintf("ops=%d window=%.3fs", s.ops-s.failed, elapsed.Seconds()))
	rep.addP50("latency_p50_ms", "ms", lat)
	rep.addP99("latency_p99_ms", "ms", lat)
	rep.add("error_rate", "ratio", float64(s.failed)/float64(max(1, s.ops)), fmt.Sprintf("failed=%d attempted=%d", s.failed, s.ops))
	rep.add("probe.round_trips_per_s", "1/s", probeRPS, "over the workload slices' time")
}

// reexecute re-runs the sampled misses through service.Execute outside
// the service; each must reproduce the served result (timing aside).
func (h *harness) reexecute(rep *report) int {
	n := 0
	for _, c := range h.clients {
		for _, s := range c.samples {
			n++
			got, err := service.Execute(s.spec, nil, nil)
			if err != nil {
				rep.violate("re-execute seed %d: %v", s.spec.Seed, err)
				continue
			}
			want := s.result
			want.Timing = nil
			a, _ := json.Marshal(got)
			b, _ := json.Marshal(want)
			if !bytes.Equal(a, b) {
				rep.violate("re-execute seed %d: %s, served %s", s.spec.Seed, a, b)
			}
		}
	}
	return n
}

// verifyStore reopens the closed service's store: it must hold every
// prepped run and every miss the service acknowledged, unchanged.
func (h *harness) verifyStore(rep *report) int {
	l, err := store.Open(h.path)
	if err != nil {
		rep.violate("reopen store: %v", err)
		return 0
	}
	defer l.Close()
	got := map[uint64]uint64{}
	_ = l.Load(func(r store.Run) error {
		enc, err := json.Marshal(r.Result)
		got[fingerprint([]byte(r.SpecHash))] = fingerprint(enc)
		return err
	})
	want := len(h.ref)
	for hash, ref := range h.ref {
		if fp, ok := got[fingerprint([]byte(hash))]; !ok || fp != fingerprint(ref.result) {
			rep.violate("prepped run %s lost or changed in the store", hash)
		}
	}
	for _, c := range h.clients {
		want += len(c.acked)
		for key, fp := range c.acked {
			if got[key] != fp {
				rep.violate("acknowledged run %x lost or changed in the store", key)
			}
		}
	}
	if len(got) != want {
		rep.violate("reopened store holds %d runs, want %d", len(got), want)
	}
	return len(got)
}

// runtimeDelta is the change of the Go runtime's counters over a window.
type runtimeDelta struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeDelta{v[0], v[1], v[2], v[3]}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
