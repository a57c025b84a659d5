package service

import "sync"

// cacheEntry is an immutable finished run: once stored, neither the result
// nor the packed records are ever mutated, so entries are shared between
// the cache and every done job for the spec without copying.
type cacheEntry struct {
	result    RunResult
	records   packedRecords
	truncated int
}

// cacheRecordBudget bounds the total round records retained across all
// cache entries (packed, ~10 bytes each for a scalar run and more for
// multidim tuples): entry count alone is a poor memory bound when single
// long runs carry up to MaxRecords records.
const cacheRecordBudget = 1 << 20

// resultCache is a bounded FIFO cache keyed by canonical spec hash.
// Simulation runs are deterministic in their spec (the effective seed is
// part of the canonical encoding or derived from its hash), so a cached
// result is exactly the result a re-run would produce — eviction is purely
// a memory bound, not a freshness concern.
type resultCache struct {
	mu           sync.Mutex
	max          int
	totalRecords int
	entries      map[string]*cacheEntry
	order        []string
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: make(map[string]*cacheEntry)}
}

func (c *resultCache) get(hash string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	return e, ok
}

// put caches e under hash and returns the entry the cache holds for it:
// e, or the entry already there — determinism makes the two identical, so
// the existing one is kept and callers share it.
func (c *resultCache) put(hash string, e *cacheEntry) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if held, dup := c.entries[hash]; dup {
		return held
	}
	c.entries[hash] = e
	c.order = append(c.order, hash)
	c.totalRecords += e.records.n
	for len(c.order) > 1 &&
		((c.max > 0 && len(c.order) > c.max) || c.totalRecords > cacheRecordBudget) {
		oldest := c.order[0]
		c.order = c.order[1:]
		c.totalRecords -= c.entries[oldest].records.n
		delete(c.entries, oldest)
	}
	return e
}

// remove evicts the entries for hashes, reporting how many were present.
// This is the retention-consistency hook: when the store's GC drops a
// persisted run, the cache must stop serving a result the disk no longer
// backs (a later identical submission re-runs instead).
func (c *resultCache) remove(hashes []string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for _, h := range hashes {
		e, ok := c.entries[h]
		if !ok {
			continue
		}
		c.totalRecords -= e.records.n
		delete(c.entries, h)
		removed++
	}
	if removed > 0 {
		kept := c.order[:0]
		for _, h := range c.order {
			if _, ok := c.entries[h]; ok {
				kept = append(kept, h)
			}
		}
		c.order = kept
	}
	return removed
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
