// Package engine is the self-describing plugin API every simulation family
// in this repository implements. It pins down the contract that was implicit
// across the service layer's per-kind switches:
//
//   - a family registers an Engine — a named factory with a Descriptor
//     (parameter schema, batch axes) and a typed spec Payload;
//   - a Payload normalizes to a canonical form (so equivalent specs hash
//     identically), validates without materializing O(n) state, reports its
//     population for admission control, and runs;
//   - every run reports one Record per executed round through the
//     RunContext's Observe hook — the hook doubles as the cancellation
//     point: Execute's observer panics with a private sentinel when the
//     cancel flag is set, unwinding the engine mid-simulation;
//   - seedless specs derive their seed from the canonical spec hash
//     (DeriveSeed), so every run is deterministic and cacheable.
//
// The Spec envelope (kind + seed + max_rounds + the family payload) and its
// JSON codec, canonical hash and Execute dispatcher all resolve the family
// through the registry — adding a simulation family to the service is a
// Register call, not an edit to a switch. consensus (median), multidim,
// robust and internal/gossip register themselves in their package init.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Record is one line of a run's round-by-round stream: the distribution
// summary every engine reports through its Observe hook. Engines observe the
// state once before the first round and once after every executed round, so
// a run of R rounds yields R+1 records and record 0 is the initial state.
type Record struct {
	// Round is the number of rounds executed before this snapshot
	// (parallel rounds, for robust runs).
	Round int `json:"round"`
	// N is the population size.
	N int64 `json:"n"`
	// Support is the number of distinct values (tuples, for multidim
	// runs) still alive.
	Support int `json:"support"`
	// Leader is the current plurality value; LeaderCount its population.
	Leader      int64 `json:"leader"`
	LeaderCount int64 `json:"leader_count"`
	// LeaderPoint is the plurality tuple of a multidim run (Leader is 0).
	// A pointer, so scalar records do not carry a slice header for it.
	LeaderPoint *[]int64 `json:"leader_point,omitempty"`
	// Absorbed is the exact kind's analytic telemetry: the probability
	// that the chain has reached consensus (been absorbed) by this round —
	// the absorption CDF at Round. Simulation kinds leave it zero.
	Absorbed float64 `json:"absorbed,omitempty"`
}

// Result is the serializable outcome of a run of any kind, plus the
// effective seed the run used, so any cached result can be reproduced. The
// scalar fields (Winner, WinnerCount) are shared by every family; the
// optional fields are the shared telemetry vocabulary families draw from —
// a new engine reuses them where they fit and extends the struct (one
// place) only for genuinely new telemetry.
type Result struct {
	// Rounds is the number of (parallel, for robust runs) rounds executed.
	Rounds      int    `json:"rounds"`
	Reason      string `json:"reason"`
	Winner      int64  `json:"winner"`
	WinnerCount int64  `json:"winner_count"`
	StableSince int    `json:"stable_since"`
	// Seed is the effective run seed; Execute fills it in, engines need not.
	Seed uint64 `json:"seed"`
	// Messages holds message-level telemetry (gossip kind).
	Messages *MessageStats `json:"messages,omitempty"`
	// WinnerPoint is the winning tuple of a multidim run (Winner is 0).
	WinnerPoint []int64 `json:"winner_point,omitempty"`
	// TupleValid / CoordValid report multidim validity (see
	// multidim.Result).
	TupleValid *bool `json:"tuple_valid,omitempty"`
	CoordValid *bool `json:"coord_valid,omitempty"`
	// Steps and ParallelTime report robust-run timing (Rounds is the
	// parallel time rounded up).
	Steps        int     `json:"steps,omitempty"`
	ParallelTime float64 `json:"parallel_time,omitempty"`
	// Dissenters counts processes (crashed included) not holding Winner
	// at the end of a robust run.
	Dissenters int `json:"dissenters,omitempty"`
	// Exact carries the analytic output of the exact kind: closed-form
	// absorption statistics with no simulation behind them.
	Exact *ExactStats `json:"exact,omitempty"`
	// Timing is the service-side lifecycle breakdown of the run. It is
	// set by the service layer after a job finishes, never by an engine:
	// Run output must stay deterministic in (payload, seed), and wall
	// clocks are not.
	Timing *RunTiming `json:"timing,omitempty"`
}

// ExactStats is the exact kind's analytic result: absorption statistics of
// the paper's two-bin median chain computed by linear algebra rather than
// Monte-Carlo — the ground truth the differential tests pin the simulation
// engines against.
type ExactStats struct {
	// ExpectedRounds is E[rounds to consensus] from the start state
	// (averaged over the start distribution for init "uniform").
	ExpectedRounds float64 `json:"expected_rounds"`
	// WinProbability is the exact probability that the left (low) value
	// wins the dynamics.
	WinProbability float64 `json:"win_probability"`
	// AbsorbedByEnd is the absorption CDF at the last emitted round;
	// 1 − AbsorbedByEnd is the probability mass still unabsorbed when the
	// record stream ends.
	AbsorbedByEnd float64 `json:"absorbed_by_end"`
}

// RunTiming is the wall-clock breakdown of one job's lifecycle (accepted →
// queued → started → done) plus the derived throughput, recorded by the
// service when the job reaches a terminal state and persisted with the
// result.
type RunTiming struct {
	// QueueWaitSeconds is the time between acceptance and a worker
	// picking the job up.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	// RunSeconds is the time spent executing the engine.
	RunSeconds float64 `json:"run_seconds"`
	// TotalSeconds is acceptance to finish.
	TotalSeconds float64 `json:"total_seconds"`
	// RecordsEmitted is the number of round records captured;
	// RecordsTruncated the rounds beyond the server's record bound.
	RecordsEmitted   int `json:"records_emitted"`
	RecordsTruncated int `json:"records_truncated,omitempty"`
	// RoundsPerSec is Rounds/RunSeconds (0 for immeasurably fast runs).
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
}

// MessageStats is the gossip kind's message-level telemetry.
type MessageStats struct {
	RequestsSent    int64 `json:"requests_sent"`
	RequestsDropped int64 `json:"requests_dropped"`
	MaxInDegree     int   `json:"max_in_degree"`
}

// RunContext carries the envelope-level inputs of one run into a payload's
// Run method.
type RunContext struct {
	// Seed is the effective run seed (explicit or hash-derived; never the
	// raw spec field).
	Seed uint64
	// MaxRounds caps the run (0 = the family's default). Families with a
	// different natural unit document the mapping (robust: parallel
	// rounds, so the step cap is MaxRounds·n).
	MaxRounds int
	// Observe receives one Record per executed round, plus one for the
	// initial state. It is never nil and MUST be called once per round:
	// it is the run's cancellation point — it panics to unwind the engine
	// when the run is cancelled (Execute recovers the sentinel). Engines
	// must not swallow panics raised inside it.
	Observe func(Record)
}

// Payload is a family's typed spec body — everything below the Spec
// envelope's shared kind/seed/max_rounds fields. A payload must be a
// pointer to a plain JSON-serializable struct: the codec decodes into it
// strictly (unknown fields are errors) and clones it by marshal round-trip.
type Payload interface {
	// Normalize rewrites the payload in place to its canonical form:
	// defaulted fields made explicit, empty parameter maps dropped — so
	// equivalent specs share one canonical encoding (and hash). It is
	// only called on a fresh clone, never on a caller-held payload.
	Normalize()
	// Validate checks that every registry reference resolves and every
	// parameter is in range, without materializing the O(n) state — it
	// runs on every API request.
	Validate() error
	// Population reports the population the run would materialize, for
	// admission control. 0 means unknown.
	Population() int64
	// Run executes the simulation synchronously. It must be deterministic
	// in (payload, ctx.Seed) and must call ctx.Observe once per round.
	Run(ctx RunContext) (Result, error)
}

// Materializer is implemented by payloads whose runtime footprint can be
// far below Population(): count-level engines hold the value distribution,
// O(support), never the O(n) per-process vector. Admission control charges
// MaterializedSize() when available, so a count-engine run over n = 10⁹
// processes is admitted while a per-process run of the same n is rejected.
type Materializer interface {
	// MaterializedSize reports the number of per-process states the run
	// will actually allocate. 0 means unknown (callers fall back to
	// Population).
	MaterializedSize() int64
}

// AxisApplier is implemented by payloads that support server-side batch
// axes beyond the envelope's shared "seed" and "max_rounds": ApplyAxis
// patches the named parameter (one of Descriptor.Axes) with the axis value.
type AxisApplier interface {
	ApplyAxis(param string, v float64) error
}

// SeedFollower is implemented by payloads whose initial state consumes its
// own seed (e.g. the "uniform" scalar init): the batch expander calls
// FollowSeed with each cell's run seed so repetitions draw distinct initial
// states.
type SeedFollower interface {
	FollowSeed(seed uint64)
}

// LeaderRecord summarizes a per-round value distribution (parallel vals
// and counts slices, as the scalar engines' observers report it) into a
// Record — the shared observer wiring of the median and gossip kinds. With
// sorted vals the first maximal count wins, the same tie-break plurality
// uses.
func LeaderRecord(round int, n int64, vals, counts []int64) Record {
	rec := Record{Round: round, N: n, Support: len(vals)}
	for i, c := range counts {
		if c > rec.LeaderCount {
			rec.Leader, rec.LeaderCount = vals[i], c
		}
	}
	return rec
}

// ErrCancelled is returned by Execute when the cancelled callback fired.
var ErrCancelled = errors.New("engine: run cancelled")

// cancelSignal is the panic sentinel the observer uses to unwind a running
// engine; Execute recovers it. The engines have no cancellation hook of
// their own, but every family's engine calls its observer once per round,
// which is exactly the granularity a cancel needs.
type cancelSignal struct{}

// Execute runs a spec of any registered kind synchronously. observe, when
// non-nil, receives one Record per executed round. cancelled, when non-nil,
// is polled once per round; returning true aborts the run with ErrCancelled.
// Any engine panic (e.g. an invalid engine/state combination that Validate
// cannot see) is converted into an error so a bad spec can never take down
// the serving process.
func Execute(spec Spec, observe func(Record), cancelled func() bool) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(cancelSignal); ok {
				err = ErrCancelled
				return
			}
			err = fmt.Errorf("engine: run panicked: %v", r)
		}
	}()
	spec = spec.Normalize()
	e, err := Lookup(spec.Kind)
	if err != nil {
		return Result{}, err
	}
	p, err := spec.payloadFor(e)
	if err != nil {
		return Result{}, err
	}
	seed := spec.Seed
	if seed == 0 {
		// The spec is already normalized, so its plain encoding is the
		// canonical one — skip EffectiveSeed's re-normalization.
		canonical, err := json.Marshal(spec)
		if err != nil {
			return Result{}, err
		}
		seed = DeriveSeed(HashBytes(canonical))
	}
	ctx := RunContext{
		Seed:      seed,
		MaxRounds: spec.MaxRounds,
		Observe: func(rec Record) {
			if cancelled != nil && cancelled() {
				panic(cancelSignal{})
			}
			if observe != nil {
				observe(rec)
			}
		},
	}
	res, err = p.Run(ctx)
	if err != nil {
		return Result{}, err
	}
	res.Seed = seed
	return res, nil
}
