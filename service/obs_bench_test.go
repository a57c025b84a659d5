package service

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/obs"
)

func benchSpec() Spec {
	return Spec{Seed: 7, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 20000},
		Rule: RuleSpec{Name: "median"},
	}}
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
// canonical encode, the decode of that encoding, and Hash, which adds
// Normalize and the SHA-256 digest to the encode. Every served request
// pays several of each across client and server.
func BenchmarkSpecCodec(b *testing.B) {
	spec := Spec{Payload: &MedianSpec{
		Init: InitSpec{Kind: "uniform", N: 5000, M: 16},
		Rule: RuleSpec{Name: "median"},
	}}
	spec.SetSeed(12345)
	spec = spec.Normalize()
	canonical, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
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
