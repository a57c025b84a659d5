package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestTokenBucketRetryAfter: the Retry-After hint comes from the bucket's
// actual deficit, not a flat 1/rate guess — at burst > 1 a fully drained
// bucket still only owes the time to the *next* token.
func TestTokenBucketRetryAfter(t *testing.T) {
	b := newTokenBucket(0.25, 4)
	// Half a token in the bucket: the next whole token is (1-0.5)/0.25 =
	// 2s out. The flat pre-fix hint would have said ceil(1/0.25) = 4s.
	b.mu.Lock()
	b.tokens = 0.5
	b.last = time.Now()
	b.mu.Unlock()
	if d := b.retryAfter(); d < 1900*time.Millisecond || d > 2100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want ~2s (the deficit, not 1/rate)", d)
	}

	// A full bucket owes nothing.
	b2 := newTokenBucket(0.25, 4)
	if d := b2.retryAfter(); d != 0 {
		t.Fatalf("full bucket retryAfter = %v, want 0", d)
	}
	// A nil (disabled) bucket owes nothing.
	var nb *tokenBucket
	if d := nb.retryAfter(); d != 0 {
		t.Fatalf("nil bucket retryAfter = %v, want 0", d)
	}
	// At rate >= 1 the deficit is sub-second; the HTTP layer clamps to 1s.
	b3 := newTokenBucket(10, 2)
	b3.mu.Lock()
	b3.tokens = 0
	b3.last = time.Now()
	b3.mu.Unlock()
	if d := b3.retryAfter(); d <= 0 || d > 150*time.Millisecond {
		t.Fatalf("rate-10 retryAfter = %v, want ~100ms", d)
	}
}

// TestLoadQuotaFile: the JSON token → quota map parses, and malformed
// files (bad JSON, non-positive rate, empty token) are rejected.
func TestLoadQuotaFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "quotas.json")
	if err := os.WriteFile(good, []byte(`{"team-a":{"rate":5,"burst":10},"batch":{"rate":0.5,"burst":2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	quotas, err := LoadQuotaFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(quotas) != 2 || quotas["team-a"].Rate != 5 || quotas["batch"].Burst != 2 {
		t.Fatalf("parsed quotas %+v", quotas)
	}

	for name, body := range map[string]string{
		"bad-json.json":  `{"a": [1]}`,
		"zero-rate.json": `{"a":{"rate":0,"burst":1}}`,
		"neg-rate.json":  `{"a":{"rate":-1,"burst":1}}`,
		"empty-tok.json": `{"":{"rate":1,"burst":1}}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadQuotaFile(p); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
	if _, err := LoadQuotaFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("absent file: want error, got nil")
	}
}

// TestCacheRemove: removing hashes evicts entries, keeps order/accounting
// consistent, and reports only the ones that were present.
func TestCacheRemove(t *testing.T) {
	c := newResultCache(10)
	c.put("a", &cacheEntry{records: packRecords(make([]RoundRecord, 3))})
	c.put("b", &cacheEntry{records: packRecords(make([]RoundRecord, 5))})
	c.put("c", &cacheEntry{})
	if n := c.remove([]string{"a", "c", "ghost"}); n != 2 {
		t.Fatalf("remove reported %d, want 2", n)
	}
	if _, hit := c.get("a"); hit {
		t.Fatal("removed entry still served")
	}
	if _, hit := c.get("b"); !hit {
		t.Fatal("unrelated entry evicted")
	}
	if c.len() != 1 || len(c.order) != 1 || c.totalRecords != 5 {
		t.Fatalf("cache accounting after remove: len=%d order=%d records=%d",
			c.len(), len(c.order), c.totalRecords)
	}
}

// TestDropPersisted: the store-GC consistency hook evicts the dropped
// hashes from the result cache and the terminal jobs serving them from
// the history — a re-submission re-runs instead of hitting the cache.
func TestDropPersisted(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()

	spec := medianSpec(1, MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Rule: RuleSpec{Name: "median"},
	})
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, s, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("run did not complete: %+v", done)
	}
	if _, hit := s.cache.get(done.SpecHash); !hit {
		t.Fatal("finished run not cached")
	}

	s.dropPersisted([]string{done.SpecHash})

	if _, hit := s.cache.get(done.SpecHash); hit {
		t.Fatal("cache still serves a result the store dropped")
	}
	if _, err := s.Get(view.ID); err != ErrNotFound {
		t.Fatalf("terminal job for a dropped hash must be evicted, got %v", err)
	}
	checkHistory(t, s)
	if m := s.Metrics(); m.StoreGCCacheEvictions != 1 {
		t.Fatalf("store_gc_cache_evictions = %d, want 1", m.StoreGCCacheEvictions)
	}

	// The next identical submission is a miss: it runs again rather than
	// serving a result the disk no longer backs.
	before := s.Metrics().CacheMisses
	view2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view2.CacheHit {
		t.Fatal("resubmission after drop must not be a cache hit")
	}
	waitDone(t, s, view2.ID)
	if after := s.Metrics().CacheMisses; after != before+1 {
		t.Fatalf("cache_misses %d -> %d, want +1", before, after)
	}
}
