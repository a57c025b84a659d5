package service

import (
	"strconv"
	"strings"

	"repro/service/store"
)

// Store is the persistence backend behind the result cache and the job
// history. New writes every completed run through it and replays it on
// startup, so a restarted service serves previously computed results from
// the cache without re-running them.
//
// *store.Log (the file-backed, CRC-framed append-only log) is the
// canonical implementation, wired up via Options.StorePath; embedders can
// inject their own via Options.Store. The default — both fields unset —
// is the in-memory-only nullStore: exactly the pre-persistence behavior,
// where cache and history die with the process.
type Store interface {
	// Load replays the persisted runs, in append order. It is called once,
	// from New, before the service accepts any job.
	Load(apply func(StoredRun) error) error
	// Append durably commits one completed run.
	Append(StoredRun) error
	// Stats reports the store counters surfaced on /v1/metrics.
	Stats() store.Stats
	// Close releases the backend; called from Service.Close after the
	// last worker has drained.
	Close() error
}

// nullStore is the in-memory default: nothing persisted, nothing reloaded.
type nullStore struct{}

func (nullStore) Load(func(StoredRun) error) error { return nil }
func (nullStore) Append(StoredRun) error           { return nil }
func (nullStore) Stats() store.Stats               { return store.Stats{} }
func (nullStore) Close() error                     { return nil }

// reload warms the result cache and the job history from the store. It
// runs inside New, before the worker pool starts, so no locking is needed.
func (s *Service) reload() error {
	return s.store.Load(func(r StoredRun) error {
		if r.SpecHash == "" {
			return nil
		}
		entry := s.cache.put(r.SpecHash, &cacheEntry{
			result: r.Result, records: packRecords(r.Records), truncated: r.Truncated,
		})
		if r.ID == "" {
			return nil
		}
		if _, dup := s.jobs[r.ID]; dup {
			return nil
		}
		j := &Job{
			id:        r.ID,
			spec:      r.Spec,
			hash:      r.SpecHash,
			reqID:     r.RequestID,
			status:    StatusDone,
			entry:     entry,
			truncated: entry.truncated,
			notify:    closedNotify,
			created:   r.Created,
			started:   r.Started,
			finished:  r.Finished,
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		// Keep fresh submissions from colliding with reloaded ids.
		if n, ok := numericID(r.ID); ok && n > s.nextID {
			s.nextID = n
		}
		return nil
	})
}

// numericID extracts the counter from a service-issued job id ("r-17").
func numericID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "r-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}
