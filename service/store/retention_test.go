package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// frameSizes replays writeRuns' boundaries as per-frame sizes.
func frameSizes(boundaries []int64) []int64 {
	sizes := make([]int64, 0, len(boundaries)-1)
	for i := 1; i < len(boundaries); i++ {
		sizes = append(sizes, boundaries[i]-boundaries[i-1])
	}
	return sizes
}

// TestOpenWithPolicyMaxBytes: a byte budget keeps exactly the newest runs
// that fit, the opening rewrite bounds the file, and the drop is counted
// in the gc stats.
func TestOpenWithPolicyMaxBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bounded.store")
	boundaries := writeRuns(t, path, 5)
	sizes := frameSizes(boundaries)
	budget := sizes[3] + sizes[4] // exactly the newest two frames

	l, err := OpenWithPolicy(path, Policy{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	runs := loadAll(t, l)
	if len(runs) != 2 || runs[0].ID != "r-4" || runs[1].ID != "r-5" {
		t.Fatalf("want newest runs r-4, r-5; got %+v", runs)
	}
	st := l.Stats()
	if st.GCRecordsDropped != 3 || st.GCCompactions != 1 {
		t.Fatalf("gc stats: %+v", st)
	}
	if st.GCBytesReclaimed <= 0 {
		t.Fatalf("no bytes reclaimed: %+v", st)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if framed := info.Size() - int64(headerSize); framed > budget {
		t.Fatalf("file not bounded: %d framed bytes > budget %d", framed, budget)
	}
}

// TestOpenWithPolicyMaxAge: records older than MaxAge are dropped at
// open; a record without a Finished timestamp is never age-dropped.
func TestOpenWithPolicyMaxAge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aged.store")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testRun(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	undated := testRun(t, 3)
	undated.Finished = time.Time{}
	if err := l.Append(undated); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// makeRun's Finished is pinned to 2026-01-02, long before now: an
	// hour-scale MaxAge expires every dated record.
	l, err = OpenWithPolicy(path, Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	runs := loadAll(t, l)
	if len(runs) != 1 || runs[0].ID != undated.ID {
		t.Fatalf("want only the undated run to survive; got %+v", runs)
	}
	if st := l.Stats(); st.GCRecordsDropped != 3 {
		t.Fatalf("gc stats: %+v", st)
	}
}

// TestOpenWithPolicyKeepsEverythingInBudget: a generous policy is a
// no-op — no rewrite, nothing dropped.
func TestOpenWithPolicyKeepsEverythingInBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roomy.store")
	writeRuns(t, path, 3)
	l, err := OpenWithPolicy(path, Policy{MaxBytes: 1 << 30, MaxAge: 100 * 365 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if runs := loadAll(t, l); len(runs) != 3 {
		t.Fatalf("want all 3 runs, got %d", len(runs))
	}
	if st := l.Stats(); st.GCRecordsDropped != 0 || st.Compactions != 0 {
		t.Fatalf("policy within budget must not rewrite: %+v", st)
	}
}

// TestBackgroundGC: appends past the byte budget kick the background
// compaction, which bounds the file while the log stays live and reports
// the dropped hashes through OnDrop.
func TestBackgroundGC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.store")
	boundaries := writeRuns(t, path, 2)
	sizes := frameSizes(boundaries)
	budget := sizes[0] + sizes[1] + sizes[1]/2 // room for ~2 frames

	l, err := OpenWithPolicy(path, Policy{MaxBytes: budget, CompactAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var mu sync.Mutex
	var dropped []string
	l.OnDrop(func(hashes []string) {
		mu.Lock()
		dropped = append(dropped, hashes...)
		mu.Unlock()
	})

	for i := 2; i < 8; i++ {
		if err := l.Append(testRun(t, i)); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := l.Stats()
		if st.GCCompactions >= 1 && st.Bytes-int64(headerSize) <= budget {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background gc never bounded the file: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// runGC calls OnDrop only after it releases the log's lock, so the
	// report can trail the Stats that show the compaction.
	reported := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(dropped) > 0
	}
	for !reported() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	gotDrops := len(dropped)
	mu.Unlock()
	if gotDrops == 0 {
		t.Fatal("OnDrop never reported the gc'd hashes")
	}

	// The log must still be appendable after the descriptor swap, and a
	// reopen must see a bounded, parseable file.
	if err := l.Append(testRun(t, 99)); err != nil {
		t.Fatalf("append after background compaction: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("file after background gc does not reopen: %v", err)
	}
	defer l2.Close()
	runs := loadAll(t, l2)
	found := false
	for _, r := range runs {
		if r.ID == "r-100" {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-gc append lost across reopen; got %d runs", len(runs))
	}
}

// TestCompactForced: Compact() rewrites superseded duplicates out even
// with no retention policy, and the rewrite survives a reopen.
func TestCompactForced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forced.store")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	run := testRun(t, 0)
	for i := 0; i < 3; i++ { // same spec hash three times: two dead frames
		if err := l.Append(run); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().Bytes
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Bytes >= before {
		t.Fatalf("forced compaction reclaimed nothing: %d -> %d", before, st.Bytes)
	}
	if st.GCCompactions != 1 {
		t.Fatalf("stats after forced compaction: %+v", st)
	}
	// Nothing left to reclaim: a second Compact must be a no-op.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st2 := l.Stats(); st2.Compactions != st.Compactions {
		t.Fatalf("idle Compact rewrote anyway: %+v -> %+v", st, st2)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if runs := loadAll(t, l2); len(runs) != 1 || runs[0].SpecHash != run.SpecHash {
		t.Fatalf("want the single deduped run, got %+v", runs)
	}
}

// TestPolicyThreshold pins the CompactAfter defaulting rules.
func TestPolicyThreshold(t *testing.T) {
	cases := []struct {
		pol  Policy
		want int64
	}{
		{Policy{CompactAfter: 42}, 42},
		{Policy{MaxBytes: 400}, 100},
		{Policy{MaxBytes: 2}, 1},                    // floor 1
		{Policy{MaxBytes: 1 << 40}, 16 << 20},       // cap 16 MiB
		{Policy{MaxAge: time.Hour}, 1 << 20},        // age-only default
		{Policy{}, 1 << 20},                         // unset
		{Policy{MaxBytes: 400, CompactAfter: 7}, 7}, // explicit wins
	}
	for _, c := range cases {
		if got := c.pol.threshold(); got != c.want {
			t.Errorf("threshold(%+v) = %d, want %d", c.pol, got, c.want)
		}
	}
	if (Policy{}).enabled() {
		t.Error("zero policy must be disabled")
	}
	if !(Policy{MaxBytes: 1}).enabled() || !(Policy{MaxAge: 1}).enabled() {
		t.Error("bounded policies must be enabled")
	}
}

// TestOpenWithPolicyPreservesOpaqueInBudget: opaque frames (unknown kind)
// compete for the byte budget like any other frame but are never
// age-dropped, and survive the retention rewrite when they fit.
func TestOpenWithPolicyPreservesOpaqueInBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "opaque.store")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRun(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-append an unknown-kind frame (CRC-intact, not decodable here).
	foreign := []byte(`{"spec_hash":"feedface","spec":{"kind":"from-the-future","seed":1,"v":1},"result":{}}`)
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(frame(foreign)); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	l, err = OpenWithPolicy(path, Policy{MaxAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	l.Close()
	if st.RecordsUnknown != 1 {
		t.Fatalf("opaque frame not preserved under age policy: %+v", st)
	}
	if st.RecordsLoaded != 0 || st.GCRecordsDropped != 1 {
		t.Fatalf("dated record should age out, opaque frame should not: %+v", st)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "from-the-future") {
		t.Fatal("opaque frame destroyed by the retention rewrite")
	}
}
