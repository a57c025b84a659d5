package service

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/multidim"
)

// newTestService is New for tests without a failing store path.
func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func waitDone(t testing.TB, s *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobView{}
}

// TestCacheHitDeterminism: a second identical submission is answered from
// the cache with the identical result and records, without re-running.
func TestCacheHitDeterminism(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	defer s.Close()
	spec := Spec{Seed: 9, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 2000},
		Rule: RuleSpec{Name: "median"},
	}}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	final := waitDone(t, s, first.ID)
	if final.Status != StatusDone || final.Result == nil {
		t.Fatalf("first run failed: %+v", final)
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Status != StatusDone || second.Result == nil {
		t.Fatalf("second submission must be a completed cache hit: %+v", second)
	}
	if !reflect.DeepEqual(second.Result, final.Result) {
		t.Fatalf("cache returned a different result: %+v vs %+v", second.Result, final.Result)
	}
	recs1, _, _, err := s.Records(first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs2, _, _, err := s.Records(second.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs1) == 0 || len(recs1) != len(recs2) {
		t.Fatalf("cache hit must replay the records: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if !reflect.DeepEqual(recs1[i], recs2[i]) {
			t.Fatalf("record %d differs: %+v vs %+v", i, recs1[i], recs2[i])
		}
	}
	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("metrics: hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.JobsSubmitted != 2 || m.JobsCompleted != 2 {
		t.Fatalf("metrics: submitted=%d completed=%d, want 2/2", m.JobsSubmitted, m.JobsCompleted)
	}
}

// TestCancelRunning cancels a long run mid-flight via the observer hook.
func TestCancelRunning(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	// A voter run large enough to take a while under MaxRounds pressure:
	// Θ(n) rounds of Θ(n) work on the ball engine.
	spec := Spec{Seed: 2, MaxRounds: 1 << 20, Payload: &MedianSpec{
		Init:   InitSpec{Kind: "twovalue", N: 4000},
		Rule:   RuleSpec{Name: "voter"},
		Engine: "ball",
	}}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until at least one record proves the run started, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		recs, terminal, _, err := s.Records(view.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if terminal {
			t.Fatalf("run finished before it could be cancelled")
		}
		if len(recs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never produced a record")
		}
	}
	if _, err := s.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, view.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", final.Status)
	}
	if s.Metrics().JobsCancelled != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", s.Metrics().JobsCancelled)
	}
	// Cancelling again reports the terminal conflict.
	if _, err := s.Cancel(view.ID); err != ErrTerminal {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
}

// TestCancelGossipMidRun: the gossip kind reports rounds through the
// shared observer hook, so DELETE /v1/runs stops a gossip run
// mid-simulation, not just between runs.
func TestCancelGossipMidRun(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	// voter over the message-passing simulator converges in Θ(n) rounds of
	// Θ(n) work each — slow enough to be caught mid-flight.
	spec := Spec{Kind: KindGossip, Seed: 2, MaxRounds: 1 << 18, Payload: &GossipSpec{
		Init:     InitSpec{Kind: "twovalue", N: 2000},
		Rule:     RuleSpec{Name: "voter"},
		Selector: "drop-value:1",
	}}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		recs, terminal, _, err := s.Records(view.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if terminal {
			t.Fatal("gossip run finished before it could be cancelled")
		}
		if len(recs) > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gossip run never produced a record")
		}
	}
	if _, err := s.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, view.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled (mid-run)", final.Status)
	}
	if final.Records == 0 {
		t.Fatal("a mid-run cancel must leave the rounds streamed so far")
	}
}

// TestCancelMultidimCountMidRun: the count-level multidim engine reports
// every round through the shared observer hook — with distribution-level
// records built straight from the tuple counts — so DELETE /v1/runs stops
// it mid-simulation exactly like the per-process path.
func TestCancelMultidimCountMidRun(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	// A population far past what the per-process path is pleasant at, over
	// ≤4 distinct tuples: auto resolves to the count engine (noise runs at
	// count level). Adversarial runs never stop early, so the run lasts the
	// full MaxRounds unless the cancel catches it mid-flight.
	spec := Spec{Kind: KindMultidim, Seed: 2, MaxRounds: 1 << 20, Payload: &MultidimSpec{
		Init:      multidim.InitSpec{Kind: "random", N: 1_000_000, D: 2, M: 2, Seed: 2},
		Adversary: &multidim.AdversaryRef{Name: "noise", Params: multidim.Params{"t": 1}},
		Engine:    multidim.EngineAuto,
	}}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var recs []RoundRecord
	for {
		var terminal bool
		recs, terminal, _, err = s.Records(view.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if terminal {
			t.Fatal("count run finished before it could be cancelled")
		}
		if len(recs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("count run never produced a record")
		}
	}
	// The streamed records are distribution-level: tuple support and the
	// plurality tuple, with the population conserved.
	for _, rec := range recs {
		if rec.N != 1_000_000 || rec.Support < 1 || rec.Support > 4 ||
			rec.LeaderPoint == nil || len(*rec.LeaderPoint) != 2 || rec.LeaderCount < 1 {
			t.Fatalf("malformed count-path record: %+v", rec)
		}
	}
	if _, err := s.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, view.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled (mid-run)", final.Status)
	}
}

// TestCacheHitNewKinds: the cache-determinism guarantee extends to the
// multidim and robust kinds.
func TestCacheHitNewKinds(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	defer s.Close()
	specs := []Spec{
		{Kind: KindMultidim, Seed: 4, Payload: &MultidimSpec{
			Init: multidim.InitSpec{Kind: "random", N: 300, D: 2, M: 6, Seed: 4}}},
		{Kind: KindRobust, Seed: 4, Payload: &RobustSpec{
			Init:     InitSpec{Kind: "twovalue", N: 300},
			LossProb: 0.05, Crashes: 3}},
		{Kind: KindGossip, Seed: 4, Payload: &GossipSpec{
			Init:      InitSpec{Kind: "twovalue", N: 300},
			CapFactor: 0.5, Selector: "drop-value:2"}},
	}
	for _, spec := range specs {
		first, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		final := waitDone(t, s, first.ID)
		if final.Status != StatusDone || final.Result == nil {
			t.Fatalf("%s run failed: %+v", spec.Kind, final)
		}
		second, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !second.CacheHit || !reflect.DeepEqual(second.Result, final.Result) {
			t.Fatalf("%s resubmission must be an identical cache hit: %+v vs %+v",
				spec.Kind, second.Result, final.Result)
		}
	}
}

// TestCancelQueued cancels a job before a worker picks it up.
func TestCancelQueued(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	blocker := Spec{Seed: 4, MaxRounds: 1 << 20, Payload: &MedianSpec{
		Init:   InitSpec{Kind: "twovalue", N: 4000},
		Rule:   RuleSpec{Name: "voter"},
		Engine: "ball",
	}}
	b, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Spec{Seed: 5, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Rule: RuleSpec{Name: "median"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{queued.ID, b.ID} {
		if v := waitDone(t, s, id); v.Status != StatusCancelled {
			t.Fatalf("job %s: status %s, want cancelled", id, v.Status)
		}
	}
}

// TestCloseCancelsQueued: Close must not run the backlog to completion.
func TestCloseCancelsQueued(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	blocker := Spec{Seed: 6, MaxRounds: 1 << 20, Payload: &MedianSpec{
		Init:   InitSpec{Kind: "twovalue", N: 4000},
		Rule:   RuleSpec{Name: "voter"},
		Engine: "ball",
	}}
	b, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Spec{Seed: 7, MaxRounds: 1 << 20, Payload: &MedianSpec{
		Init:   InitSpec{Kind: "twovalue", N: 4000},
		Rule:   RuleSpec{Name: "voter"},
		Engine: "ball",
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Close should cancel the queued job; the running blocker is allowed
	// to finish (here: run to its natural end or get drained quickly).
	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	s.Close()
	v, err := s.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCancelled {
		t.Fatalf("queued job after Close: status %s, want cancelled", v.Status)
	}
}

// TestJobEviction: the job history is bounded; oldest terminal jobs are
// evicted while their cached results stay servable.
func TestJobEviction(t *testing.T) {
	s := newTestService(t, Options{Workers: 2, MaxJobs: 3})
	defer s.Close()
	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		v, err := s.Submit(Spec{Seed: seed, Payload: &MedianSpec{
			Init: InitSpec{Kind: "twovalue", N: 200},
			Rule: RuleSpec{Name: "median"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		waitDone(t, s, v.ID)
	}
	if got := len(s.List()); got != 3 {
		t.Fatalf("job history holds %d jobs, want 3", got)
	}
	if _, err := s.Get(ids[0]); err != ErrNotFound {
		t.Fatalf("oldest job must be evicted, got %v", err)
	}
	if _, err := s.Get(ids[5]); err != nil {
		t.Fatalf("newest job must survive: %v", err)
	}
	checkHistory(t, s)
	// The evicted run's result is still answered from the cache.
	v, err := s.Submit(Spec{Seed: 1, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 200},
		Rule: RuleSpec{Name: "median"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.CacheHit {
		t.Fatal("evicted job's spec must still hit the result cache")
	}
}

// checkHistory asserts the job history's two indexes agree: order and
// jobs hold the same jobs, each once and under its own id.
func checkHistory(t *testing.T, s *Service) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != len(s.order) {
		t.Fatalf("history: %d jobs by id, %d in order", len(s.jobs), len(s.order))
	}
	seen := make(map[*Job]bool, len(s.order))
	for i, j := range s.order {
		if s.jobs[j.id] != j || seen[j] {
			t.Fatalf("history: order[%d] (%s) is not in jobs or is listed twice", i, j.id)
		}
		seen[j] = true
	}
}

// listIDs returns the history's job ids in List order.
func listIDs(s *Service) []string {
	var ids []string
	for _, v := range s.List() {
		ids = append(ids, v.ID)
	}
	return ids
}

// TestJobEvictionLiveHead: with a running and a queued job the oldest in
// the history, cache hits evict the terminal jobs behind them — the
// history stays at MaxJobs and both live jobs stay reachable, in
// submission order — and once the two finish they are evicted first.
func TestJobEvictionLiveHead(t *testing.T) {
	const maxJobs = 4
	s := newTestService(t, Options{Workers: 1, MaxJobs: maxJobs})
	defer s.Close()
	hit := medianSpec(1, MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 200},
		Rule: RuleSpec{Name: "median"},
	})
	cached, err := s.Submit(hit)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, cached.ID)
	// Voter runs on the ball engine at this n outlast the test by far;
	// both are cancelled below.
	blocker := func(seed uint64) Spec {
		return Spec{Seed: seed, MaxRounds: 1 << 20, Payload: &MedianSpec{
			Init:   InitSpec{Kind: "twovalue", N: 20000},
			Rule:   RuleSpec{Name: "voter"},
			Engine: "ball",
		}}
	}
	running, err := s.Submit(blocker(2))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(blocker(3))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for v, _ := s.Get(running.ID); v.Status != StatusRunning; v, _ = s.Get(running.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	submitHit := func() string {
		t.Helper()
		v, err := s.Submit(hit)
		if err != nil {
			t.Fatal(err)
		}
		if !v.CacheHit {
			t.Fatalf("%s is not a cache hit", v.ID)
		}
		return v.ID
	}

	// The first hit fills the history; each later one evicts the oldest
	// terminal job, passing over the live pair at the head.
	hits := []string{submitHit()}
	if got, want := listIDs(s), []string{cached.ID, running.ID, queued.ID, hits[0]}; !slices.Equal(got, want) {
		t.Fatalf("history %v, want %v", got, want)
	}
	for i := 1; i < 3*maxJobs; i++ {
		hits = append(hits, submitHit())
		want := []string{running.ID, queued.ID, hits[i-1], hits[i]}
		if got := listIDs(s); !slices.Equal(got, want) {
			t.Fatalf("after hit %d: history %v, want %v", i, got, want)
		}
		checkHistory(t, s)
	}
	for id, want := range map[string]Status{running.ID: StatusRunning, queued.ID: StatusQueued} {
		if v, err := s.Get(id); err != nil || v.Status != want {
			t.Fatalf("live job %s: %+v, %v; want %s", id, v, err, want)
		}
	}

	// Once finished, the pair are the oldest terminal jobs: the next two
	// hits evict them, in order.
	for _, id := range []string{running.ID, queued.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{running.ID, queued.ID} {
		if v := waitDone(t, s, id); v.Status != StatusCancelled {
			t.Fatalf("job %s: status %s, want cancelled", id, v.Status)
		}
	}
	last := hits[len(hits)-2:]
	next := submitHit()
	if got, want := listIDs(s), []string{queued.ID, last[0], last[1], next}; !slices.Equal(got, want) {
		t.Fatalf("history %v, want %v", got, want)
	}
	if _, err := s.Get(running.ID); err != ErrNotFound {
		t.Fatalf("finished head job must be evicted first, got %v", err)
	}
	after := submitHit()
	if got, want := listIDs(s), []string{last[0], last[1], next, after}; !slices.Equal(got, want) {
		t.Fatalf("history %v, want %v", got, want)
	}
	checkHistory(t, s)
}

// TestJobHistoryConcurrent drives a small job history from many
// goroutines at once — submitters of cache hits and of fresh runs beside
// readers that Get, follow, List and Cancel recent jobs — for the race
// detector. Once everything settles, the history's indexes agree and one
// more submit trims it to exactly MaxJobs.
func TestJobHistoryConcurrent(t *testing.T) {
	const maxJobs, ops, hitSpecs = 8, 200, 4
	s := newTestService(t, Options{Workers: 2, MaxJobs: maxJobs})
	defer s.Close()
	spec := func(seed uint64) Spec {
		return medianSpec(seed, MedianSpec{
			Init: InitSpec{Kind: "twovalue", N: 50},
			Rule: RuleSpec{Name: "median"},
		})
	}
	for seed := uint64(1); seed <= hitSpecs; seed++ {
		v, err := s.Submit(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, v.ID)
	}

	var (
		mu  sync.Mutex
		ids []string
	)
	recent := func(i int) string {
		mu.Lock()
		defer mu.Unlock()
		if len(ids) == 0 {
			return ""
		}
		return ids[len(ids)-1-i%min(len(ids), 2*maxJobs)]
	}
	var fresh atomic.Uint64
	fresh.Store(1000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				seed := uint64(1 + i%hitSpecs)
				if g%2 == 1 {
					seed = fresh.Add(1)
				}
				v, err := s.Submit(spec(seed))
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids = append(ids, v.ID)
				mu.Unlock()
			}
		}()
	}
	readers := []func(id string) error{
		func(id string) error {
			_, err := s.Get(id)
			return err
		},
		func(id string) error {
			for i := 0; ; {
				recs, terminal, notify, err := s.Records(id, i)
				if err != nil || terminal {
					return err
				}
				i += len(recs)
				<-notify
			}
		},
		func(string) error {
			s.List()
			return nil
		},
		func(id string) error {
			_, err := s.Cancel(id)
			if errors.Is(err, ErrTerminal) {
				return nil
			}
			return err
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := recent(i)
				if id == "" {
					continue
				}
				if err := read(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkHistory(t, s)

	for _, v := range s.List() {
		waitDone(t, s, v.ID)
	}
	if _, err := s.Submit(spec(1)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.List()); n != maxJobs {
		t.Fatalf("settled history holds %d jobs, want %d", n, maxJobs)
	}
	checkHistory(t, s)
}

// TestCoalesceInFlight: an identical spec submitted while the first run is
// still queued/running returns the existing job instead of re-executing.
func TestCoalesceInFlight(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	spec := Spec{Seed: 8, MaxRounds: 1 << 20, Payload: &MedianSpec{
		Init:   InitSpec{Kind: "twovalue", N: 4000},
		Rule:   RuleSpec{Name: "voter"},
		Engine: "ball",
	}}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("in-flight duplicate got a new job: %s vs %s", second.ID, first.ID)
	}
	m := s.Metrics()
	if m.JobsCoalesced != 1 || m.JobsSubmitted != 1 {
		t.Fatalf("metrics: coalesced=%d submitted=%d, want 1/1", m.JobsCoalesced, m.JobsSubmitted)
	}
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	// After cancellation the job is no longer a coalescing target: the
	// same spec submitted again must get a fresh job, not the cancelled
	// one.
	third, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if third.ID == first.ID {
		t.Fatal("resubmission coalesced onto a cancel-flagged job")
	}
	if _, err := s.Cancel(third.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, first.ID)
	waitDone(t, s, third.ID)
}

// TestCachedBeforeDone: a run is in the result cache before its job turns
// terminal, so a resubmission the moment a waiter sees the job finish is a
// cache hit every time — never a miss that runs the spec again.
func TestCachedBeforeDone(t *testing.T) {
	s := newTestService(t, Options{Workers: 2, CacheSize: 4096})
	defer s.Close()
	// Several submitters at once keep Ps idle, so a woken waiter can run
	// before the finishing worker goes on.
	const submitters, each = 4, 250
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				spec := Spec{Seed: uint64(g*each + i + 1), Payload: &MedianSpec{
					Init: InitSpec{Kind: "twovalue", N: 50},
					Rule: RuleSpec{Name: "median"},
				}}
				v, err := s.Submit(spec)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					_, terminal, notify, err := s.Records(v.ID, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if terminal {
						break
					}
					<-notify
				}
				again, err := s.Submit(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if !again.CacheHit {
					t.Errorf("resubmission of %s right after done missed the cache: %+v", v.ID, again)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestJobEventsInOrder: each job's events reach a subscriber in lifecycle
// order — job.submitted, then job.started, then job.done — even when a
// worker picks the job up the moment it is queued.
func TestJobEventsInOrder(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	defer s.Close()
	const jobs = 200
	// Room for every lifecycle event of every job: a drop would read as a
	// missing step.
	sub := s.Events(4*jobs, 0)
	defer sub.Close()
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(Spec{Seed: uint64(i + 1), Payload: &MedianSpec{
			Init: InitSpec{Kind: "twovalue", N: 50},
			Rule: RuleSpec{Name: "median"},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	step := map[string]int{"job.submitted": 1, "job.started": 2, "job.done": 3}
	reached := map[string]int{}
	timeout := time.After(30 * time.Second)
	for done := 0; done < jobs; {
		select {
		case ev := <-sub.C:
			n, lifecycle := step[ev.Type]
			if !lifecycle {
				continue
			}
			if reached[ev.Job] != n-1 {
				t.Fatalf("job %s: %s arrived after step %d", ev.Job, ev.Type, reached[ev.Job])
			}
			reached[ev.Job] = n
			if n == 3 {
				done++
			}
		case <-timeout:
			t.Fatalf("%d of %d jobs finished in order before the timeout", done, jobs)
		}
	}
}

// TestSubmitPopulationLimit rejects specs beyond the MaxN admission bound.
func TestSubmitPopulationLimit(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, MaxN: 1000})
	defer s.Close()
	if _, err := s.Submit(Spec{Payload: &MedianSpec{
		Init: InitSpec{Kind: "distinct", N: 1001},
		Rule: RuleSpec{Name: "median"},
	}}); err == nil {
		t.Fatal("population above MaxN must be rejected")
	}
	if _, err := s.Submit(Spec{Payload: &MedianSpec{
		Init:   InitSpec{Kind: "blocks", Counts: []int64{600, 600}},
		Rule:   RuleSpec{Name: "median"},
		Engine: "ball",
	}}); err == nil {
		t.Fatal("blocks population above MaxN must be rejected on the ball engine")
	}
	// On auto the same spec runs on the count engine, which holds its two
	// values, not its 1200 processes.
	if _, err := s.Submit(Spec{Payload: &MedianSpec{
		Init: InitSpec{Kind: "blocks", Counts: []int64{600, 600}},
		Rule: RuleSpec{Name: "median"},
	}}); err != nil {
		t.Fatalf("blocks population on auto must be admitted: %v", err)
	}
	if _, err := s.Submit(Spec{Seed: 1, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 1000},
		Rule: RuleSpec{Name: "median"},
	}}); err != nil {
		t.Fatalf("population at MaxN must be accepted: %v", err)
	}
}

// TestSubmitInvalidSpec surfaces validation errors at submit time.
func TestSubmitInvalidSpec(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(Spec{Payload: &MedianSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Rule: RuleSpec{Name: "nope"}}}); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
	if m := s.Metrics(); m.JobsSubmitted != 0 {
		t.Fatalf("rejected submissions must not count, got %d", m.JobsSubmitted)
	}
}

// TestSubmitLeavesPayloadAlone: a payload admission cannot copy (its NaN
// has no JSON encoding) is rejected without being normalized in place.
func TestSubmitLeavesPayloadAlone(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	p := &RobustSpec{Init: InitSpec{Kind: "twovalue", N: 48}, LossProb: math.NaN()}
	if _, err := s.Submit(Spec{Seed: 1, Kind: "robust", Payload: p}); err == nil {
		t.Fatal("a NaN loss_prob must be rejected")
	}
	if p.Mode != "" {
		t.Fatalf("Submit rewrote the caller's payload: mode %q", p.Mode)
	}
}

// TestFinishedJobsShareTheirEntry: every done job for a spec — the run
// itself, a cache hit, and the job reloaded from the store after a
// restart — serves its stream from the one cache entry's packed records
// instead of a private copy, and terminal jobs share the closed notify
// channel.
func TestFinishedJobsShareTheirEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.store")
	spec := Spec{Seed: 3, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 2000},
		Rule: RuleSpec{Name: "median"},
	}}
	var want []RoundRecord
	check := func(s *Service, id, what string) *cacheEntry {
		t.Helper()
		j, err := s.job(id)
		if err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		held, ok := s.cache.get(j.hash)
		switch {
		case j.status != StatusDone:
			t.Fatalf("%s: status %s", what, j.status)
		case !ok || j.entry != held:
			t.Fatalf("%s: job does not share the cache entry", what)
		case j.records != nil:
			t.Fatalf("%s: done job keeps %d unpacked records", what, len(j.records))
		case j.notify != closedNotify:
			t.Fatalf("%s: terminal job has a private notify channel", what)
		}
		j.mu.Unlock()
		got, terminal, _, err := s.Records(id, 0)
		if err != nil || !terminal || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stream %v (terminal %v, err %v), want %v", what, got, terminal, err, want)
		}
		return j.entry
	}

	s := newTestService(t, Options{Workers: 1, StorePath: path})
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(spec.Normalize(), func(r RoundRecord) { want = append(want, r) }, nil)
	if err != nil || len(want) != res.Rounds+1 {
		t.Fatalf("reference run: %d records, %v", len(want), err)
	}
	waitDone(t, s, first.ID)
	ran := check(s, first.ID, "run")
	hit, err := s.Submit(spec)
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmission: %+v, %v", hit, err)
	}
	if check(s, hit.ID, "cache hit") != ran {
		t.Fatal("cache hit does not share the run's entry")
	}
	s.Close()

	s = newTestService(t, Options{Workers: 1, StorePath: path})
	defer s.Close()
	check(s, first.ID, "reloaded")
}

// TestPackedRecordsRoundTrip: packing is lossless for every field,
// including negative values, nil versus empty leader points and
// non-zero absorbed probabilities, and from(i) decodes the suffix.
func TestPackedRecordsRoundTrip(t *testing.T) {
	empty := []int64{}
	point := []int64{-3, 0, 1 << 40}
	recs := []RoundRecord{
		{Round: 0, N: 1_000_000_000, Support: 4, Leader: -7, LeaderCount: 250_000_000},
		{Round: 1, N: 9, Support: 2, LeaderCount: 5, LeaderPoint: &point},
		{Round: 2, N: 9, Support: 1, LeaderCount: 9, LeaderPoint: &empty},
		{Round: 3, N: 48, Support: 2, Leader: 1, LeaderCount: 24, Absorbed: 0.3125},
		{Round: 1 << 20, N: 1 << 62, Support: 1, Leader: math.MinInt64, LeaderCount: math.MaxInt64, Absorbed: 1 - 1e-12},
	}
	p := packRecords(recs)
	if p.n != len(recs) || len(p.buf) != cap(p.buf) {
		t.Fatalf("packed %d records in len %d cap %d", p.n, len(p.buf), cap(p.buf))
	}
	for i := 0; i <= len(recs)+1; i++ {
		want := recs[min(i, len(recs)):]
		if len(want) == 0 {
			want = nil
		}
		if got := slices.Collect(p.from(i)); !reflect.DeepEqual(got, want) {
			t.Fatalf("from(%d) = %+v, want %+v", i, got, want)
		}
	}
	if got := packRecords(nil); got.n != 0 || slices.Collect(got.from(0)) != nil {
		t.Fatalf("empty pack: %+v", got)
	}
}
