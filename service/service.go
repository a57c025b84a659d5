package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/engine"
	"repro/obs"
	"repro/service/store"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued → running → done | failed | cancelled. Cache hits
// are born done.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// terminal reports whether no further transitions can happen.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Options configures a Service.
type Options struct {
	// Workers is the worker-pool size (<=0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; Submit
	// returns ErrQueueFull beyond it (<=0 = 256).
	QueueDepth int
	// CacheSize bounds the result cache in entries (<=0 = 1024).
	CacheSize int
	// MaxRecords bounds the per-job stored round records; further rounds
	// still run (and still poll cancellation) but are not recorded
	// (<=0 = 65536).
	MaxRecords int
	// MaxJobs bounds the in-memory job history: once exceeded, the
	// oldest terminal jobs are evicted, in submission order (queued and
	// running jobs are never evicted, and evicted runs stay reachable
	// through the cache). Eviction walks from the oldest job and stops
	// once the excess is gone, so a submit pays for the jobs it evicts
	// plus the live jobs ahead of them — at most QueueDepth + Workers,
	// whatever MaxJobs is (<=0 = 4096).
	MaxJobs int
	// MaxN bounds the population a submitted spec may materialize — the
	// per-ball state costs 8 bytes per process, so without a cap one
	// tiny POST with a huge n OOMs the daemon (<=0 = 2^27, ~1 GB of
	// state; raise it deliberately on big machines).
	MaxN int64
	// MaxBatchCells bounds the cells one batch request may expand to
	// (<=0 = 4096).
	MaxBatchCells int
	// MaxBodyBytes caps the HTTP request body the API accepts; larger
	// submissions get 413 (<=0 = 1 MiB).
	MaxBodyBytes int64
	// SubmitRate rate-limits the HTTP submit endpoints (POST /v1/runs and
	// /v1/batches) to this many requests per second with a burst of
	// SubmitBurst; excess requests get 429 (0 = unlimited).
	SubmitRate float64
	// SubmitBurst is the submit rate limiter's bucket size (<=0 = 8 when
	// SubmitRate is set).
	SubmitBurst int
	// AuthToken, when non-empty, guards the mutating HTTP endpoints
	// (POST /v1/runs, POST /v1/batches, DELETE /v1/runs/{id}): requests
	// must carry "Authorization: Bearer <token>" or they get 401.
	// Read-only endpoints stay open ("" = no auth).
	AuthToken string
	// StorePath, when non-empty, backs the result cache and job history
	// with the file store at that path (package service/store): completed
	// runs are written through on finish and reloaded by New, so cache
	// hits survive restarts. "" = in-memory only.
	StorePath string
	// StoreMaxBytes and StoreMaxAge bound the file store's retention
	// (store.Policy.MaxBytes / MaxAge): the newest runs within the byte
	// budget and age bound are kept, older ones are garbage-collected at
	// open and by background compaction — and evicted from the result
	// cache and job history in step. Only meaningful with StorePath;
	// 0 = unbounded (the pre-retention behavior).
	StoreMaxBytes int64
	StoreMaxAge   time.Duration
	// Quotas maps additional bearer tokens to per-token submit budgets:
	// each token authenticates the mutating endpoints like AuthToken does,
	// but is metered by its own rate/burst bucket instead of the shared
	// SubmitRate limiter. nil = token-level quotas disabled.
	Quotas map[string]Quota
	// Store injects a persistence backend directly; it takes precedence
	// over StorePath. New closes it on failure and Service.Close closes
	// it on shutdown. nil (with StorePath empty) = in-memory only.
	Store Store
	// Logger receives the service's structured logs: HTTP access lines
	// (with request ids), job lifecycle transitions and store errors.
	// nil = discard.
	Logger *slog.Logger
	// EventBuffer is the event bus ring capacity — how much recent
	// history GET /v1/events?replay=N can serve to a new subscriber
	// (<=0 = 256).
	EventBuffer int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.MaxRecords <= 0 {
		o.MaxRecords = 1 << 16
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.MaxN <= 0 {
		o.MaxN = 1 << 27
	}
	if o.MaxBatchCells <= 0 {
		o.MaxBatchCells = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.SubmitRate > 0 && o.SubmitBurst <= 0 {
		o.SubmitBurst = 8
	}
	return o
}

// Errors the API layer maps to HTTP statuses.
var (
	ErrQueueFull = errors.New("service: job queue is full")
	ErrClosed    = errors.New("service: service is closed")
	ErrNotFound  = errors.New("service: no such job")
	ErrTerminal  = errors.New("service: job already finished")
)

// Job is one submitted run. All mutable state is guarded by mu. notify is
// closed on every update so stream followers can wait without polling; it
// is made on demand by the first follower that waits (see updated), and a
// terminal job's is the shared, already closed closedNotify. A done job
// keeps only its cache entry: the result and the packed records it
// serves.
type Job struct {
	id       string
	spec     Spec
	hash     string
	cacheHit bool
	// reqID is the X-Request-Id of the submission that created the job
	// ("" for library submissions without one), carried on its events,
	// logs and persisted run.
	reqID string

	cancel atomic.Bool

	mu     sync.Mutex
	status Status
	// entry is a done job's immutable result and records, shared with the
	// cache; records holds the stream of a job that is not done.
	entry     *cacheEntry
	errMsg    string
	records   []RoundRecord
	truncated int
	notify    chan struct{}
	created   time.Time
	started   time.Time
	finished  time.Time
}

// JobView is the immutable JSON snapshot of a job.
type JobView struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	Status   Status `json:"status"`
	// CacheHit marks jobs answered from the result cache without running.
	CacheHit bool       `json:"cache_hit"`
	Result   *RunResult `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
	// RequestID is the X-Request-Id of the submission that created the
	// job, for correlating API responses, events and logs.
	RequestID string `json:"request_id,omitempty"`
	// Records is the number of stored round records (the stream length);
	// Truncated counts rounds beyond the MaxRecords bound.
	Records   int        `json:"records"`
	Truncated int        `json:"truncated,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Spec      Spec       `json:"spec"`
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		SpecHash:  j.hash,
		Status:    j.status,
		CacheHit:  j.cacheHit,
		Error:     j.errMsg,
		RequestID: j.reqID,
		Records:   len(j.records),
		Truncated: j.truncated,
		Created:   j.created,
		Spec:      j.spec,
	}
	if j.entry != nil {
		r := j.entry.result
		v.Result = &r
		v.Records = j.entry.records.n
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// closedNotify is the notify channel of every terminal job: no update
// follows, so followers that wait on it return at once.
var closedNotify = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// wake wakes the job's followers: it closes the notify channel, if any
// follower made one, and leaves none — or closedNotify once the job is
// terminal. Callers hold j.mu.
func (j *Job) wake() {
	if j.notify != nil && j.notify != closedNotify {
		close(j.notify)
	}
	j.notify = nil
	if j.status.terminal() {
		j.notify = closedNotify
	}
}

// updated returns the channel closed at the job's next update, making it
// if no follower has yet. Callers hold j.mu.
func (j *Job) updated() <-chan struct{} {
	if j.notify == nil {
		j.notify = make(chan struct{})
	}
	return j.notify
}

// appendRecord stores one round record up to the configured bound.
func (j *Job) appendRecord(max int, rec RoundRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.records) >= max {
		j.truncated++
		return
	}
	j.records = append(j.records, rec)
	j.wake()
}

// recordsFrom returns the records at index >= i, in order, whether the
// job is terminal, and the channel that will be closed on the next
// update. A done job's records are unpacked as they are iterated.
func (j *Job) recordsFrom(i int) (iter.Seq[RoundRecord], bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out iter.Seq[RoundRecord]
	switch {
	case j.entry != nil:
		out = j.entry.records.from(i)
	default:
		out = slices.Values(j.records[min(i, len(j.records)):])
	}
	return out, j.status.terminal(), j.updated()
}

// Service is the embeddable simulation service: an in-memory job store, a
// bounded worker pool executing specs on the library engines, and a result
// cache. Create with New, embed in an HTTP server via Handler, stop with
// Close.
type Service struct {
	opts    Options
	metrics *Metrics
	cache   *resultCache
	store   Store
	limiter *tokenBucket
	quotas  map[string]*tokenBucket
	queue   chan *Job
	bus     *obs.Bus
	logger  *slog.Logger

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []*Job          // the history, oldest first; evictLocked trims its head
	pending map[string]*Job // spec hash → not-yet-terminal job, for coalescing
	nextID  int
	closed  bool

	wg sync.WaitGroup
}

// New starts a Service with opts.Workers workers. With a persistence
// backend configured (Options.StorePath or Options.Store), it reloads
// the persisted runs into the result cache and job history before
// accepting work; opening or replaying a corrupt-beyond-recovery store
// is the only error path.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	st := opts.Store
	if st == nil && opts.StorePath != "" {
		l, err := store.OpenWithPolicy(opts.StorePath, store.Policy{
			MaxBytes: opts.StoreMaxBytes,
			MaxAge:   opts.StoreMaxAge,
		})
		if err != nil {
			return nil, err
		}
		st = l
	}
	if st == nil {
		st = nullStore{}
	}
	s := &Service{
		opts:    opts,
		cache:   newResultCache(opts.CacheSize),
		store:   st,
		limiter: newTokenBucket(opts.SubmitRate, float64(opts.SubmitBurst)),
		queue:   make(chan *Job, opts.QueueDepth),
		jobs:    make(map[string]*Job),
		pending: make(map[string]*Job),
		logger:  opts.Logger,
	}
	if len(opts.Quotas) > 0 {
		s.quotas = make(map[string]*tokenBucket, len(opts.Quotas))
		for tok, q := range opts.Quotas {
			s.quotas[tok] = newTokenBucket(q.Rate, float64(q.Burst))
		}
	}
	// Keep the in-memory serving layers consistent with retention: when
	// the store's background GC drops persisted runs, their cache entries
	// and history jobs go with them.
	if dropper, ok := st.(interface{ OnDrop(func([]string)) }); ok {
		dropper.OnDrop(s.dropPersisted)
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.metrics = newMetrics(opts.Workers, func() int { return len(s.queue) }, st.Stats)
	s.bus = obs.NewBus(opts.EventBuffer, s.metrics.eventsPublished, s.metrics.eventsDropped)
	s.metrics.reg.GaugeFunc("consensusd_event_subscribers", "event_subscribers",
		"Live event stream subscribers attached.",
		func() float64 { return float64(s.bus.Subscribers()) })
	if err := s.reload(); err != nil {
		st.Close()
		return nil, err
	}
	s.evictLocked() // reloaded history still honors the MaxJobs bound
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops accepting jobs, cancels everything still queued and waits
// for running jobs to finish.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Flag still-queued jobs so the drain below cancels instead of runs
	// them (a job racing into "running" right now simply finishes).
	for _, j := range s.order {
		j.mu.Lock()
		if j.status == StatusQueued {
			j.cancel.Store(true)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	_ = s.store.Close()
	// Closing the bus last: the drain above still publishes terminal
	// events, and closing detaches every /v1/events consumer.
	s.bus.Close()
}

// Metrics returns the typed snapshot of the service's scalar counters.
func (s *Service) Metrics() MetricsSnapshot { return s.metrics.Snapshot() }

// MetricsJSON returns the full JSON metric exposition — every family the
// Prometheus view has, histograms and labels included — from one registry
// walk.
func (s *Service) MetricsJSON() map[string]any { return s.metrics.JSONMap() }

// WriteMetricsText renders the Prometheus text exposition (format 0.0.4),
// for /v1/metrics content negotiation and debug listeners.
func (s *Service) WriteMetricsText(w io.Writer) { s.metrics.WritePrometheus(w) }

// Events subscribes to the live event bus with a delivery buffer of buf
// events, replaying up to replay recent events first — at most
// Options.EventBuffer, and the buffer grows to hold them (see
// obs.Bus.Subscribe). The returned subscriber is nil when the service is
// closed; callers must Close it when done.
func (s *Service) Events(buf, replay int) *obs.Subscriber {
	return s.bus.Subscribe(buf, replay)
}

// Submit validates the spec, answers from the result cache when possible,
// and otherwise enqueues a job for the worker pool. The returned view is
// the job's state at submit time (status done for cache hits). Submission
// is idempotent while a run is in flight: an identical spec submitted
// before the first finishes coalesces onto the existing job and returns
// its view instead of executing the deterministic simulation twice.
func (s *Service) Submit(spec Spec) (JobView, error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying a request context: the request id placed
// there by the HTTP middleware (obs.WithRequestID) is recorded on the job
// and flows through its events, logs and persisted run.
func (s *Service) SubmitCtx(ctx context.Context, spec Spec) (JobView, error) {
	_, view, err := s.submit(spec, obs.RequestIDFrom(ctx))
	return view, err
}

// submit is Submit returning the job itself: Spec.Admit under
// Options.MaxN, then enqueue.
func (s *Service) submit(spec Spec, reqID string) (*Job, JobView, error) {
	spec, hash, err := spec.Admit(s.opts.MaxN)
	if err != nil {
		return nil, JobView{}, err
	}
	return s.enqueue(spec, hash, reqID)
}

// enqueue answers an admitted spec — normalized, validated and sized by
// Spec.Admit, with hash its canonical hash — from an in-flight job or the
// result cache, or queues a job for the worker pool. It returns the job
// itself, for callers (the batch runner) that must outlive history
// eviction.
func (s *Service) enqueue(spec Spec, hash, reqID string) (*Job, JobView, error) {
	now := time.Now()
	j := &Job{
		spec:    spec,
		hash:    hash,
		reqID:   reqID,
		status:  StatusQueued,
		created: now,
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, JobView{}, ErrClosed
	}
	// Order matters: an in-flight job for this hash wins over the cache
	// (it cannot be cached yet), and a finished one has moved from the
	// pending map into the cache before being removed (see finish), so
	// checking pending first then cache cannot miss both. A job whose
	// cancellation was requested (or that raced to a terminal state) is
	// not a coalescing target — the new submission must actually run.
	if existing, inFlight := s.pending[hash]; inFlight && !existing.cancel.Load() {
		existing.mu.Lock()
		terminal := existing.status.terminal()
		existing.mu.Unlock()
		if !terminal {
			s.metrics.jobsCoalesced.Add(1)
			s.mu.Unlock()
			s.bus.Publish(obs.Event{
				Type: "job.coalesced", Job: existing.id, Kind: spec.Kind,
				SpecHash: hash, RequestID: reqID,
			})
			return existing, existing.view(), nil
		}
	}
	if entry, hit := s.cache.get(hash); hit {
		j.cacheHit = true
		j.status = StatusDone
		j.entry = entry
		j.truncated = entry.truncated
		j.notify = closedNotify
		j.started, j.finished = now, now
		s.metrics.cacheHits.Add(1)
		s.metrics.jobsCompleted.Add(1)
	} else {
		// Reject before touching counters or IDs so a shed request
		// leaves no trace in the metrics. Every send to the queue holds
		// s.mu, so a free slot now stays free for the send below.
		if len(s.queue) == cap(s.queue) {
			s.mu.Unlock()
			return nil, JobView{}, ErrQueueFull
		}
		s.pending[hash] = j
		s.metrics.cacheMisses.Add(1)
	}
	s.nextID++
	j.id = fmt.Sprintf("r-%d", s.nextID)
	s.metrics.jobsSubmitted.Add(1)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	// The job is complete and announced before a worker can receive it, so
	// the worker reads a set id and job.submitted precedes job.started.
	s.bus.Publish(obs.Event{
		Type: "job.submitted", Job: j.id, Kind: spec.Kind,
		SpecHash: hash, RequestID: reqID,
	})
	if !j.cacheHit {
		s.queue <- j
	}
	// The worker need not wait for the history to be pruned.
	s.evictLocked()
	s.mu.Unlock()
	if j.cacheHit {
		s.bus.Publish(obs.Event{
			Type: "job.done", Job: j.id, Kind: spec.Kind, SpecHash: hash,
			RequestID: reqID, Status: string(StatusDone), Detail: "cache hit",
		})
	}
	if s.logger.Enabled(context.Background(), slog.LevelDebug) {
		s.logger.Debug("job submitted", "job", j.id, "kind", spec.Kind,
			"spec_hash", hash, "cache_hit", j.cacheHit, "request_id", reqID)
	}
	return j, j.view(), nil
}

// evictLocked drops the oldest terminal jobs beyond the MaxJobs bound so
// the daemon's job history cannot grow without limit. It walks the
// history from its oldest end and stops once the excess is gone; live
// jobs passed on the way stay, in order, at the new head. A call thus
// costs the jobs it evicts plus the live jobs ahead of them, whatever
// the history's length. Callers hold s.mu.
func (s *Service) evictLocked() {
	excess := len(s.order) - s.opts.MaxJobs
	live, i := 0, 0
	for ; excess > 0 && i < len(s.order); i++ {
		j := s.order[i]
		j.mu.Lock()
		evictable := j.status.terminal()
		j.mu.Unlock()
		if evictable {
			delete(s.jobs, j.id)
			excess--
			continue
		}
		s.order[live] = j
		live++
	}
	// Slide the live jobs up against the unwalked rest and clear the
	// vacated slots, so the evicted jobs can be collected.
	head := i - live
	copy(s.order[head:i], s.order[:live])
	clear(s.order[:head])
	s.order = s.order[head:]
}

// dropPersisted is the retention-consistency hook the store's GC calls
// (outside the store lock) with the spec hashes it dropped: the matching
// result-cache entries are evicted — a later identical submission re-runs
// instead of serving a result the disk no longer backs — and terminal
// history jobs for those hashes are evicted with them. Live jobs
// (queued/running) are untouched; they will re-persist on finish.
func (s *Service) dropPersisted(hashes []string) {
	if len(hashes) == 0 {
		return
	}
	cacheEvicted := s.cache.remove(hashes)
	dropped := make(map[string]bool, len(hashes))
	for _, h := range hashes {
		dropped[h] = true
	}
	s.mu.Lock()
	kept := s.order[:0]
	for _, j := range s.order {
		j.mu.Lock()
		evictable := dropped[j.hash] && j.status.terminal()
		j.mu.Unlock()
		if evictable {
			delete(s.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	jobsEvicted := len(s.order) - len(kept)
	clear(s.order[len(kept):])
	s.order = kept
	s.mu.Unlock()
	s.metrics.storeGCEvicted.Add(int64(cacheEvicted))
	s.bus.Publish(obs.Event{Type: "store.gc", Detail: fmt.Sprintf(
		"retention dropped %d runs; evicted %d cache entries, %d history jobs",
		len(hashes), cacheEvicted, jobsEvicted)})
	s.logger.Info("store gc", "hashes_dropped", len(hashes),
		"cache_evicted", cacheEvicted, "jobs_evicted", jobsEvicted)
}

// Get returns a job's current state.
func (s *Service) Get(id string) (JobView, error) {
	j, err := s.job(id)
	if err != nil {
		return JobView{}, err
	}
	return j.view(), nil
}

// List returns all jobs in submission order.
func (s *Service) List() []JobView {
	s.mu.Lock()
	jobs := slices.Clone(s.order)
	s.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Cancel requests cancellation. Queued jobs are dropped when a worker
// dequeues them; running jobs of every kind abort at their next observed
// round, the engines' per-round cancellation point. Terminal jobs return
// ErrTerminal.
func (s *Service) Cancel(id string) (JobView, error) {
	j, err := s.job(id)
	if err != nil {
		return JobView{}, err
	}
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return j.view(), ErrTerminal
	}
	j.mu.Unlock()
	j.cancel.Store(true)
	// A cancel-flagged job must stop absorbing identical submissions.
	s.mu.Lock()
	if s.pending[j.hash] == j {
		delete(s.pending, j.hash)
	}
	s.mu.Unlock()
	return j.view(), nil
}

// Records returns the stored round records from index i on, whether the
// job is terminal, and a channel closed at the next update — the follow
// primitive for embedding users (the HTTP stream endpoint holds the job
// directly so it survives history eviction).
func (s *Service) Records(id string, i int) ([]RoundRecord, bool, <-chan struct{}, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, false, nil, err
	}
	recs, terminal, notify := j.recordsFrom(i)
	return slices.Collect(recs), terminal, notify, nil
}

func (s *Service) job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// worker executes queued jobs until the queue closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if j.cancel.Load() {
			s.finish(j, StatusCancelled, nil, "cancelled before start")
			continue
		}
		j.mu.Lock()
		j.status = StatusRunning
		j.started = time.Now()
		j.wake()
		j.mu.Unlock()

		s.bus.Publish(obs.Event{
			Type: "job.started", Job: j.id, Kind: j.spec.Kind,
			SpecHash: j.hash, RequestID: j.reqID,
		})

		s.metrics.workersBusy.Add(1)
		max := s.opts.MaxRecords
		// All per-run observability is resolved here, once: the per-kind
		// rounds counter, the bus handle and the progress-event prototype.
		// The per-round cost inside the observer is then just
		// RunTracker.Tick — a few atomics, zero allocations (see
		// BenchmarkObservedRun).
		tracker := obs.NewRunTracker(
			s.metrics.roundsTotal.With(j.spec.Kind), s.bus, 0,
			obs.Event{
				Type: "job.progress", Job: j.id, Kind: j.spec.Kind,
				SpecHash: j.hash, RequestID: j.reqID,
			})
		// j.spec is what Admit returned, so it runs as it is.
		seed := j.spec.Seed
		if seed == 0 { // only a seedless spec needs the hash's seed
			seed = DeriveSeed(j.hash)
		}
		res, err := j.spec.Run(seed,
			func(rec RoundRecord) {
				tracker.Tick(rec.Round)
				j.appendRecord(max, rec)
			},
			j.cancel.Load)
		s.metrics.workersBusy.Add(-1)

		switch {
		case err == nil:
			s.finish(j, StatusDone, &res, "")
		case errors.Is(err, ErrCancelled):
			s.finish(j, StatusCancelled, nil, "cancelled while running")
		default:
			s.finish(j, StatusFailed, nil, err.Error())
		}
	}
}

// finish moves a job to a terminal state, records its lifecycle timing,
// and, for successful runs, stores the result in the cache.
func (s *Service) finish(j *Job, st Status, res *RunResult, errMsg string) {
	finished := time.Now()
	var entry *cacheEntry
	j.mu.Lock()
	records, truncated := j.records, j.truncated
	created, started := j.created, j.started
	j.mu.Unlock()
	// The timing breakdown is attached before the result is shared with
	// the view, the cache and the store, so every copy carries it.
	if res != nil {
		timing := &engine.RunTiming{
			QueueWaitSeconds: started.Sub(created).Seconds(),
			RunSeconds:       finished.Sub(started).Seconds(),
			TotalSeconds:     finished.Sub(created).Seconds(),
			RecordsEmitted:   len(records),
			RecordsTruncated: truncated,
		}
		if timing.RunSeconds > 0 {
			timing.RoundsPerSec = float64(res.Rounds) / timing.RunSeconds
		}
		res.Timing = timing
		// Cache before the job turns terminal: a resubmission that sees it
		// done skips its pending entry and must then hit the cache.
		entry = s.cache.put(j.hash, &cacheEntry{result: *res, records: packRecords(records), truncated: truncated})
	}

	// Latency observations: queue wait for anything a worker picked up,
	// run duration and rounds only for runs that actually executed. They
	// too precede the status change, so a caller that sees the job
	// terminal reads metrics that count it.
	kind := j.spec.Kind
	if !started.IsZero() {
		s.metrics.queueWait.ObserveDuration(started.Sub(created))
	}
	var elapsed float64
	switch st {
	case StatusDone:
		elapsed = finished.Sub(started).Seconds()
		s.metrics.runDuration.With(kind).ObserveDuration(finished.Sub(started))
		s.metrics.roundsPerRun.With(kind).Observe(int64(res.Rounds))
		s.metrics.jobsCompleted.Add(1)
	case StatusFailed:
		elapsed = finished.Sub(started).Seconds()
		s.metrics.jobsFailed.Add(1)
	case StatusCancelled:
		if !started.IsZero() {
			elapsed = finished.Sub(started).Seconds()
		}
		s.metrics.jobsCancelled.Add(1)
	}

	j.mu.Lock()
	j.status = st
	j.finished = finished
	if entry != nil {
		// The entry serves the stream now; drop the append-grown slice.
		j.entry, j.records = entry, nil
	}
	j.errMsg = errMsg
	j.wake()
	j.mu.Unlock()

	if st == StatusDone {
		// Write through to the persistent store. A write failure must not
		// fail the job — the result is correct and cached — so it is only
		// counted (store_append_errors in /v1/metrics) and surfaced as a
		// store.error event.
		if err := s.store.Append(StoredRun{
			ID: j.id, SpecHash: j.hash, Spec: j.spec, RequestID: j.reqID,
			Result: *res, Records: records, Truncated: truncated,
			Created: created, Started: started, Finished: finished,
		}); err != nil {
			s.metrics.storeAppendErrors.Add(1)
			s.bus.Publish(obs.Event{Type: "store.error", Job: j.id, SpecHash: j.hash, Detail: err.Error()})
			s.logger.Error("store append failed", "job", j.id, "error", err)
		} else if _, inMemory := s.store.(nullStore); !inMemory {
			s.bus.Publish(obs.Event{Type: "store.appended", Job: j.id, SpecHash: j.hash})
		}
	}
	s.bus.Publish(obs.Event{
		Type: "job." + string(st), Job: j.id, Kind: kind, SpecHash: j.hash,
		RequestID: j.reqID, Status: string(st), Elapsed: elapsed, Detail: errMsg,
	})
	if s.logger.Enabled(context.Background(), slog.LevelInfo) {
		s.logger.Info("job finished", "job", j.id, "kind", kind, "status", st,
			"elapsed", elapsed, "error", errMsg, "request_id", j.reqID)
	}
	s.mu.Lock()
	if s.pending[j.hash] == j {
		delete(s.pending, j.hash)
	}
	s.mu.Unlock()
}
