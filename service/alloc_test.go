//go:build !race

// The race detector's sync.Pool drops pooled buffers at random, so
// allocation counts are pinned only without it.

package service

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// TestHandlerAllocs pins the allocations of a cache-hit submit, a get
// and a done job's stream through the handler, with the default
// discarding logger: log lines the logger drops build no attributes, an
// existing metric child is found without building its label key, and the
// hash's hex digits are written without fmt. The counts include the
// httptest request's and recorder's own. The spec is read whole into a
// pooled buffer and decoded in one call, and views encode it through its
// payload type's compiled plan.
func TestHandlerAllocs(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := hitSpec(4243)
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)
	body, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(method, target string, body []byte) func() {
		return func() {
			req := httptest.NewRequest(method, target, bytes.NewReader(body))
			req.Header.Set("X-Request-Id", "bench-4243-1")
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"cache-hit submit", 41, serve("POST", "/v1/runs", body)},
		{"get", 32, serve("GET", "/v1/runs/"+v.ID, nil)},
		{"done stream", 34, serve("GET", "/v1/runs/"+v.ID+"/stream", nil)},
	} {
		if got := testing.AllocsPerRun(50, c.run); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.max)
		}
	}
}

// TestAdmitAllocs pins the allocations of admitting the serve benchmark's
// hit spec: the payload's structural Clone, its canonical encoding and
// the hash's hex digits.
func TestAdmitAllocs(t *testing.T) {
	spec := hitSpec(4243)
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := spec.Admit(0); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("Admit: %v allocations, want at most 4", got)
	}
}

// TestRecoveryAllocs pins New's allocations per recovered run on the
// restart benchmark's store: per run, the store's decode allocates the
// run, its id, spec hash, reason, timing, payload and records, and the
// reload a cache entry, the packed records and a job. Names the kind's
// descriptor lists decode to the listed strings, and the scan's index, the
// job map and the history are each allocated once, sized for every run.
func TestRecoveryAllocs(t *testing.T) {
	path := restartStore(t)
	got := testing.AllocsPerRun(5, func() {
		s, err := New(Options{StorePath: path})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}) / restartRuns
	if got > 10.5 {
		t.Errorf("New: %.2f allocations per recovered run, want at most 10.5", got)
	}
}

// TestSpecDecodeAllocs pins the allocations of decoding the serve
// benchmark's hit spec: the payload alone. The kind is the registry's
// own string and every payload string is a name its descriptor lists.
func TestSpecDecodeAllocs(t *testing.T) {
	canonical, err := hitSpec(12345).Normalize().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		var s Spec
		if err := s.UnmarshalJSON(canonical); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("UnmarshalJSON: %v allocations, want at most 1", got)
	}
}
