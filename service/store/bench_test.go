package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/engine"
)

// BenchmarkStoreOpen opens a store of 2048 runs shaped like the serve
// benchmark's prepped ones and replays them: the recovery a restart pays
// before it serves. Each run is a median run of a uniform start over 16
// values among 5000 processes, with its service timing and every round
// record.
func BenchmarkStoreOpen(b *testing.B) { benchmarkStoreOpen(b) }

// BenchmarkStoreOpenOneCPU is BenchmarkStoreOpen with GOMAXPROCS 1, set
// inside the benchmark because benchdiff drops -cpu suffixes: recovery on
// one core, where the frames are decoded one after another.
func BenchmarkStoreOpenOneCPU(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchmarkStoreOpen(b)
}

func benchmarkStoreOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "open.store")
	data := Header()
	for i := range 2048 {
		payload, err := EncodeRun(prepRun(b, i))
		if err != nil {
			b.Fatal(err)
		}
		data = append(data, frame(payload)...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := l.Load(func(Run) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		if n != 2048 {
			b.Fatalf("reloaded %d runs, want 2048", n)
		}
	}
}

// BenchmarkEncodeRun encodes one prepped run as its frame payload, as
// every Append and every compaction does.
func BenchmarkEncodeRun(b *testing.B) {
	run := prepRun(b, 0)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := EncodeRun(run); err != nil {
			b.Fatal(err)
		}
	}
}

// prepRun runs the i'th prepped spec the way the service does and returns
// the Run it would persist.
func prepRun(tb testing.TB, i int) Run {
	seed := uint64(i)*4 + 2
	raw := fmt.Sprintf(`{"kind":"median","seed":%d,"init":{"kind":"uniform","n":5000,"m":16,"seed":%d},"rule":{"name":"median"}}`, seed, seed)
	var spec engine.Spec
	if err := spec.UnmarshalJSON([]byte(raw)); err != nil {
		tb.Fatal(err)
	}
	spec, hash, err := spec.Admit(0)
	if err != nil {
		tb.Fatal(err)
	}
	var recs []engine.Record
	res, err := engine.Execute(spec, func(r engine.Record) { recs = append(recs, r) }, nil)
	if err != nil {
		tb.Fatal(err)
	}
	created := time.Date(2026, 10, 18, 8, 0, 0, 0, time.UTC).Add(time.Duration(i) * 731 * time.Microsecond)
	res.Timing = &engine.RunTiming{
		QueueWaitSeconds: 0.000213, RunSeconds: 0.000048, TotalSeconds: 0.000274,
		RecordsEmitted: len(recs), RoundsPerSec: float64(res.Rounds) / 0.000048,
	}
	return Run{
		ID: fmt.Sprintf("r-%d", i+1), SpecHash: hash, Spec: spec, Result: res, Records: recs,
		Created: created, Started: created.Add(213 * time.Microsecond), Finished: created.Add(274 * time.Microsecond),
	}
}
