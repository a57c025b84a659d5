package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/engine"
	"repro/service"
)

// perLayer reports the per-layer metrics of a traced run. Counters the
// program exposes through its public API (RunTiming, Metrics(), store
// stats, runtime/metrics) are read over the untraced half; span timings
// come from the traced half; the codec, Execute and ExpandBatch timings
// from replays after the load.
func (h *harness) perLayer(rep *report, plain, traced windowResult, spans []span) {
	rep.attempted = plain.stats.ops + traced.stats.ops
	rep.failed = plain.stats.failed + traced.stats.failed
	durs := map[string][]float64{}
	type opSums struct{ clientSelf, httpSelf, bytes int64 }
	perOp := map[string]*opSums{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		o := perOp[s.Op]
		if o == nil {
			o = &opSums{}
			perOp[s.Op] = o
		}
		switch {
		case s.Name == "client.op":
		case strings.HasPrefix(s.Name, "client."):
			o.clientSelf += s.Self
		case strings.HasPrefix(s.Name, "service.http."):
			o.httpSelf += s.Self
			o.bytes += s.Bytes
		}
	}
	var clientSelf, httpSelf []float64
	var bytes int64
	for _, o := range perOp {
		clientSelf = append(clientSelf, float64(o.clientSelf)/1e6)
		httpSelf = append(httpSelf, float64(o.httpSelf)/1e6)
		bytes += o.bytes
	}
	tracedOps := float64(max(1, traced.stats.ops))
	plainOps := float64(max(1, plain.stats.ops))

	// The raw end-to-end values of the untraced half, beside the layers.
	rep.add("ops_per_s", "ops/s", plain.opsPerSec(), fmt.Sprintf("untraced half, ops=%d", plain.stats.ops-plain.stats.failed))
	rep.addP50("latency_p50_ms", "ms", summarize(plain.stats.latMS))

	// client (service/client), timed around each call.
	rep.addP50("client.submit_ms.p50", "ms", summarize(durs["client.submit"]))
	rep.addP99("client.submit_ms.p99", "ms", summarize(durs["client.submit"]))
	rep.addP50("client.stream_ms.p50", "ms", summarize(durs["client.stream"]))
	rep.addP50("client.get_ms.p50", "ms", summarize(durs["client.get"]))
	rep.addP50("client.batch_ms.p50", "ms", summarize(durs["client.batch"]))
	rep.addP50("client.self_ms.p50", "ms", summarize(clientSelf))
	var dials int64
	for _, c := range h.clients {
		dials += c.dials.Load()
	}
	rep.add("client.conns_opened", "count", float64(dials), fmt.Sprintf("%d clients", clients))

	// service.http (service/http.go), timed by the wrapper around Handler().
	rep.addP50("service.http.submit_ms.p50", "ms", summarize(durs["service.http.submit"]))
	rep.addP50("service.http.stream_ms.p50", "ms", summarize(durs["service.http.stream"]))
	rep.addP50("service.http.get_ms.p50", "ms", summarize(durs["service.http.get"]))
	rep.addP50("service.http.batch_ms.p50", "ms", summarize(durs["service.http.batch"]))
	rep.addP50("service.http.self_ms.p50", "ms", summarize(httpSelf))
	rep.add("service.http.bytes_per_op", "bytes", float64(bytes)/tracedOps, "response body bytes")

	// engine (engine/spec.go), replayed on the traced ops' specs.
	h.replayCodec(rep, traced.stats.seeds)

	// service (service/service.go, batch.go).
	var queue, run []float64
	var busy float64
	for _, t := range plain.stats.timings {
		queue = append(queue, t.QueueWaitSeconds*1e3)
		run = append(run, t.RunSeconds*1e3)
		busy += t.RunSeconds
	}
	rep.addP50("service.queue_wait_ms.p50", "ms", summarize(queue))
	rep.addP99("service.queue_wait_ms.p99", "ms", summarize(queue))
	rep.addP50("service.run_ms.p50", "ms", summarize(run))
	b, a := plain.before, plain.after
	rep.add("service.worker_busy_frac", "ratio", busy/(float64(a.Workers)*plain.elapsed.Seconds()), fmt.Sprintf("%d workers", a.Workers))
	if lookups := a.CacheHits - b.CacheHits + a.CacheMisses - b.CacheMisses; lookups > 0 {
		rep.add("service.cache_hit_ratio", "ratio", float64(a.CacheHits-b.CacheHits)/float64(lookups), fmt.Sprintf("lookups=%d", lookups))
	} else {
		rep.na("service.cache_hit_ratio", "ratio", "no lookups")
	}
	rep.add("service.coalesced", "count", float64(a.JobsCoalesced-b.JobsCoalesced), "")
	rep.add("service.records_per_op", "count", float64(plain.stats.records)/plainOps, "")
	rep.addP50("service.job_ms.p50", "ms", summarize(durs["service.job"]))
	h.replayExpand(rep, traced.stats.seeds)
	if h.w.batch {
		rep.add("service.batch_cells_per_s", "1/s", float64(plain.stats.cells)/plain.elapsed.Seconds(), "")
	} else {
		rep.na("service.batch_cells_per_s", "1/s", "no batches in this workload")
	}

	// consensus (the median kind's engines), service.Execute replays.
	h.replayExecute(rep, traced.stats.seeds)

	// store (service/store), through the timing wrapper.
	rep.add("store.open_s", "s", medianOf(h.openS), fmt.Sprintf("median of %d restarts", len(h.openS)))
	rep.add("store.load_s", "s", medianOf(h.loadS), fmt.Sprintf("median of %d restarts", len(h.loadS)))
	rep.addP50("store.append_ms.p50", "ms", summarize(durs["store.append"]))
	rep.addP99("store.append_ms.p99", "ms", summarize(durs["store.append"]))
	appends := a.StoreRecordsAppended - b.StoreRecordsAppended
	rep.add("store.appends", "count", float64(appends), "")
	rep.add("store.append_errors", "count", float64(a.StoreAppendErrors-b.StoreAppendErrors), "")
	if appends > 0 {
		rep.add("store.bytes_per_append", "bytes", float64(a.StoreBytes-b.StoreBytes)/float64(appends), "")
	} else {
		rep.na("store.bytes_per_append", "bytes", "no appends")
	}

	// runtime (Go GC and allocator), runtime/metrics deltas.
	rt := plain.rt
	rep.add("runtime.alloc_bytes_per_op", "bytes", rt.allocBytes/plainOps, "")
	rep.add("runtime.gc_cycles_per_kop", "count", 1000*rt.gcCycles/plainOps, fmt.Sprintf("cycles=%.0f", rt.gcCycles))
	if rt.totalCPU > 0 {
		rep.add("runtime.gc_cpu_frac", "ratio", rt.gcCPU/rt.totalCPU, "")
	} else {
		rep.na("runtime.gc_cpu_frac", "ratio", "no CPU accounted")
	}

	// The trace itself.
	rep.add("trace.overhead_pct", "%", 100*(1-traced.opsPerSec()/plain.opsPerSec()),
		fmt.Sprintf("traced %.1f vs untraced %.1f ops/s", traced.opsPerSec(), plain.opsPerSec()))
	rep.add("trace.events_dropped", "count", float64(h.tr.dropped), "")
	if h.tr.dropped > 0 {
		rep.violate("the event stream dropped %d events: the trace is incomplete", h.tr.dropped)
	}
}

// replayCodec times the engine.Spec codec calls the service makes on each
// submitted spec: decode, Normalize, Validate and the canonical hash.
func (h *harness) replayCodec(rep *report, seeds []uint64) {
	var dec, norm, val, hash []float64
	for _, seed := range seeds {
		raw, err := json.Marshal(h.w.spec(seed))
		if err != nil {
			rep.violate("encode spec: %v", err)
			return
		}
		t0 := time.Now()
		var s service.Spec
		err = json.Unmarshal(raw, &s)
		t1 := time.Now()
		if err != nil {
			rep.violate("decode spec: %v", err)
			return
		}
		n := s.Normalize()
		t2 := time.Now()
		err = n.Validate()
		t3 := time.Now()
		canonical, merr := json.Marshal(n)
		_ = engine.HashBytes(canonical)
		t4 := time.Now()
		if err != nil || merr != nil {
			rep.violate("validate/hash spec: %v %v", err, merr)
			return
		}
		dec = append(dec, us(t1.Sub(t0)))
		norm = append(norm, us(t2.Sub(t1)))
		val = append(val, us(t3.Sub(t2)))
		hash = append(hash, us(t4.Sub(t3)))
	}
	rep.addP50("engine.decode_us.p50", "us", summarize(dec))
	rep.addP50("engine.normalize_us.p50", "us", summarize(norm))
	rep.addP50("engine.validate_us.p50", "us", summarize(val))
	rep.addP50("engine.hash_us.p50", "us", summarize(hash))
}

// replayExpand times Service.ExpandBatch on 16-seed sweeps of the traced
// ops' seeds (the batch workload's own requests).
func (h *harness) replayExpand(rep *report, seeds []uint64) {
	var expand []float64
	width := batchFresh * 2
	for i := 0; i+width <= len(seeds) && len(expand) < expandReplays; i += width {
		req := batchRequest(h.w, seeds[i:i+width])
		start := time.Now()
		cells, err := h.svc.ExpandBatch(req)
		expand = append(expand, ms(time.Since(start)))
		if err != nil || len(cells) != width {
			rep.violate("expand batch: %d cells, %v", len(cells), err)
			return
		}
	}
	rep.addP50("service.batch_expand_ms.p50", "ms", summarize(expand))
}

// replayExecute runs executeReplays of the traced ops' specs, spread over
// the window, through service.Execute outside the service.
func (h *harness) replayExecute(rep *report, seeds []uint64) {
	var exec []float64
	var rounds int
	var secs float64
	step := max(1, len(seeds)/executeReplays)
	for i := 0; i < len(seeds) && len(exec) < executeReplays; i += step {
		start := time.Now()
		res, err := service.Execute(h.w.spec(seeds[i]), nil, nil)
		d := time.Since(start)
		if err != nil {
			rep.violate("execute seed %d: %v", seeds[i], err)
			return
		}
		exec = append(exec, ms(d))
		rounds += res.Rounds
		secs += d.Seconds()
	}
	rep.addP50("consensus.execute_ms.p50", "ms", summarize(exec))
	if len(exec) == 0 {
		rep.na("consensus.rounds_per_s", "1/s", "no samples")
		rep.na("consensus.rounds_per_run", "count", "no samples")
		return
	}
	rep.add("consensus.rounds_per_s", "1/s", float64(rounds)/secs, fmt.Sprintf("n=%d", len(exec)))
	rep.add("consensus.rounds_per_run", "count", float64(rounds)/float64(len(exec)), fmt.Sprintf("n=%d", len(exec)))
}
