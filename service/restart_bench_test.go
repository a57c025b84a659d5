package service

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// restartRuns is the number of runs in the restart benchmark's store: the
// serve benchmark's prep.
const restartRuns = 2048

// restartStoreFile holds the bench-shaped store file once built, so that
// each benchmark round and test of a process reuses it.
var restartStoreFile struct {
	sync.Mutex
	data []byte
}

// restartStore writes a store of restartRuns runs shaped like the serve
// benchmark's prep, persisted by the service itself (median rule, uniform
// start over 16 values, n = 5000, 16-digit seeds, each run with its timing
// and round records), into a temporary directory and returns its path.
func restartStore(tb testing.TB) string {
	restartStoreFile.Lock()
	defer restartStoreFile.Unlock()
	path := filepath.Join(tb.TempDir(), "runs.store")
	if restartStoreFile.data == nil {
		s, err := New(Options{StorePath: path, QueueDepth: restartRuns})
		if err != nil {
			tb.Fatal(err)
		}
		ids := make([]string, 0, restartRuns)
		for i := range restartRuns {
			v, err := s.Submit(hitSpec(1<<52 | uint64(i)<<2 | 2))
			if err != nil {
				tb.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			if v := waitDone(tb, s, id); v.Status != StatusDone {
				tb.Fatalf("prep job %s ended %s: %s", id, v.Status, v.Error)
			}
		}
		s.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		restartStoreFile.data = data
		return path
	}
	if err := os.WriteFile(path, restartStoreFile.data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkServiceRestart times what the serve benchmark's setup_s times,
// short of the HTTP listener: New on the prep-shaped store of restartRuns
// runs (the store's open and recovery scan, then the reload of the result
// cache and job history), then Close.
func BenchmarkServiceRestart(b *testing.B) {
	path := restartStore(b)
	b.ReportAllocs()
	for b.Loop() {
		s, err := New(Options{StorePath: path})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
