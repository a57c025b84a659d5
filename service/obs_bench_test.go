package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/obs"
)

func benchSpec() Spec {
	return Spec{Seed: 7, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 20000},
		Rule: RuleSpec{Name: "median"},
	}}
}

// hitSpec is the serve benchmark's hit spec (median, uniform n = 5000,
// m = 16) at a run seed, which the uniform init follows.
func hitSpec(seed uint64) Spec {
	spec := Spec{Payload: &MedianSpec{
		Init: InitSpec{Kind: "uniform", N: 5000, M: 16},
		Rule: RuleSpec{Name: "median"},
	}}
	spec.SetSeed(seed)
	return spec
}

// BenchmarkBareRun is the uninstrumented baseline for BenchmarkObservedRun:
// the same engine execution with a no-op observer.
func BenchmarkBareRun(b *testing.B) {
	spec := benchSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(spec, func(RoundRecord) {}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitCacheHit times a cache-hit Submit into a full job
// history: each call adds a done job and evicts the oldest, so its cost
// must not grow with the history's length (MaxJobs).
func BenchmarkSubmitCacheHit(b *testing.B) {
	for _, history := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			s, err := New(Options{Workers: 1, MaxJobs: history})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			spec := benchSpec()
			v, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			waitDone(b, s, v.ID)
			for range history {
				if _, err := s.Submit(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Submit(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpecCodec times the spec codec on the serve benchmark's hit
// spec (median, uniform n = 5000, m = 16, seeded and normalized): the
// canonical encode and the decode of that encoding, called directly as
// the served paths call them (encode, decode) and through encoding/json,
// which adds its own scan and copy of the value (marshal, unmarshal), and
// Hash, which adds Normalize and the SHA-256 digest to the encode. Every
// served request pays several of each across client and server.
func BenchmarkSpecCodec(b *testing.B) {
	spec := hitSpec(12345).Normalize()
	canonical, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := spec.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var s Spec
			if err := s.UnmarshalJSON(canonical); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := json.Marshal(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var s Spec
			if err := json.Unmarshal(canonical, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := spec.Hash(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkViewCodec times the view codec on what the serve benchmark's
// hit workload sends: a done cache-hit view of its prep run (median,
// uniform n = 5000, m = 16, with timing and a generated request id),
// encoded and decoded, and that job's stream written by the handler, 15
// NDJSON lines from its packed records.
func BenchmarkViewCodec(b *testing.B) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := obs.WithRequestID(context.Background(), "5c0ffee15bad1dea")
	first, err := s.SubmitCtx(ctx, hitSpec(4243))
	if err != nil {
		b.Fatal(err)
	}
	waitDone(b, s, first.ID)
	view, err := s.SubmitCtx(ctx, hitSpec(4243))
	if err != nil || !view.CacheHit || view.Records != 15 {
		b.Fatalf("want a cache hit with 15 records: %+v, %v", view, err)
	}
	data, err := view.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := data[:0]
		for b.Loop() {
			if buf, err = view.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v JobView
			if err := v.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+view.ID+"/stream", nil)
		req.SetPathValue("id", view.ID)
		w := &discardWriter{header: http.Header{}}
		b.ReportAllocs()
		for b.Loop() {
			s.handleStream(w, req)
		}
	})
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkBatchCached times one op of the serve benchmark's batch
// workload against a warm cache: ExpandBatch then RunBatch of the seedless
// hit spec swept over a 16-value seed axis, every cell a cache hit. It
// measures batch admission and fan-out, not the engine.
func BenchmarkBatchCached(b *testing.B) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	seeds := make([]float64, 16)
	for i := range seeds {
		seeds[i] = float64(1000 + i)
	}
	req := BatchRequest{Template: hitSpec(0), Axes: []Axis{{Param: "seed", Values: seeds}}}
	batch := func() {
		cells, err := s.ExpandBatch(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunBatch(context.Background(), cells, func(rec BatchCellRecord) error {
			if rec.Status != StatusDone {
				return fmt.Errorf("cell %d: %s %s", rec.Index, rec.Status, rec.Error)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	batch() // warm the cache
	b.ReportAllocs()
	for b.Loop() {
		batch()
	}
}

// BenchmarkObservedRun runs the engine under the exact per-round
// instrumentation the worker loop installs: a RunTracker feeding the
// per-kind round counter and the (idle) event bus. Compare allocs/op
// against BenchmarkBareRun — the tracker must add zero allocations per
// round.
func BenchmarkObservedRun(b *testing.B) {
	spec := benchSpec()
	reg := obs.NewRegistry()
	rounds := reg.CounterVec("consensusd_rounds_total", "rounds", "total rounds", "kind")
	bus := obs.NewBus(256, nil, nil)
	defer bus.Close()
	counter := rounds.With("median")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker := obs.NewRunTracker(counter, bus, 0, obs.Event{
			Type: "job.progress", Job: "bench", Kind: "median",
		})
		if _, err := Execute(spec, func(rec RoundRecord) { tracker.Tick(rec.Round) }, nil); err != nil {
			b.Fatal(err)
		}
	}
}
