package exact

import (
	"fmt"
	"math"

	"repro/engine"
)

// This file registers the analytic machinery as the "exact" spec kind of
// the engine plugin API (package engine): a run of the exact kind computes
// its answers from the Section 3 Markov chain by linear algebra — the
// expected absorption time, the exact win probability and the per-round
// absorption CDF — and never simulates anything. Small-n queries that
// would otherwise pay for a Monte-Carlo run get a closed-form answer that
// is cheaper than any cache miss, and the same numbers anchor the
// differential tests that pin the simulation engines (engine/differential).
//
// Record semantics differ from the simulation kinds by necessity: one
// engine.Record is emitted per propagated CDF round (so cancellation,
// NDJSON streaming and the service record budget work unchanged), carrying
// the absorption CDF in Record.Absorbed and the *expected* plurality in
// Leader/LeaderCount.

// Left and right bin values of the two-bin state space, matching the
// scalar "twovalue" init's defaults (low=1, high=2) so exact results read
// like a two-value median run's: chain state i means i balls hold
// ValueLeft.
const (
	ValueLeft  = 1
	ValueRight = 2
)

// Init kinds of the exact spec's start distribution.
const (
	// InitPoint starts from the deterministic state Start.
	InitPoint = "point"
	// InitUniform starts uniformly over the transient states 1..n−1.
	InitUniform = "uniform"
)

// MaxSpecN bounds the exact kind's population: the absorption-time and
// win-probability solves are O(n³) dense linear algebra, which stays well
// under a second up to a few hundred states. Larger populations belong to
// the median kind's count engine (O(1) per round on two values at n up to
// 2^62).
const MaxSpecN = 400

// Propagation stops when the absorbed mass reaches defaultCDFTarget or
// after defaultCDFCap rounds, whichever comes first, when the spec sets no
// max_rounds. The chain absorbs exponentially fast (Section 3), so the cap
// is far above any reachable tail at n ≤ MaxSpecN.
const (
	defaultCDFTarget = 1 - 1e-9
	defaultCDFCap    = 4096
)

// ReasonAnalytic is the Result.Reason of every exact run: the numbers are
// closed-form, not the outcome of a stopped simulation.
const ReasonAnalytic = "analytic"

// Spec is the exact kind's payload: which chain (n) and which start
// distribution (init, start) to solve.
type Spec struct {
	// N is the population size, 2..MaxSpecN.
	N int `json:"n"`
	// Init selects the start distribution over chain states: "point" (the
	// default; a point mass at Start) or "uniform" (uniform over the
	// transient states 1..n−1).
	Init string `json:"init,omitempty"`
	// Start is the initial left-bin count of the point init (0 = n/2, the
	// balanced two-bin start). It must name a transient state (1..n−1).
	Start int `json:"start,omitempty"`
}

// Normalize implements engine.Payload: the implied init kind and balanced
// start become explicit, so equivalent specs share one canonical encoding.
func (s *Spec) Normalize() {
	if s.Init == "" {
		s.Init = InitPoint
	}
	if s.Init == InitPoint && s.Start == 0 {
		s.Start = s.N / 2
	}
}

// Validate implements engine.Payload. The n bound is the admission rule of
// the analytic path: the O(n³) solve budget, not memory, is what limits it.
func (s *Spec) Validate() error {
	if s.N < 2 || s.N > MaxSpecN {
		return fmt.Errorf("exact: n %d outside [2, %d] — the analytic solve is O(n³); use the median kind's count engine for larger n", s.N, MaxSpecN)
	}
	switch s.Init {
	case "", InitPoint:
		if s.Start < 0 || s.Start >= s.N {
			return fmt.Errorf("exact: start %d outside [0, %d] (0 = n/2; the start state must be transient)", s.Start, s.N-1)
		}
	case InitUniform:
		if s.Start != 0 {
			return fmt.Errorf("exact: start %d is meaningless with init %q (the start distribution is uniform)", s.Start, InitUniform)
		}
	default:
		return fmt.Errorf("exact: unknown init %q (known: %q, %q)", s.Init, InitPoint, InitUniform)
	}
	return nil
}

// MaterializedSize implements engine.Payload. The run itself materializes
// O(n²) floats for the transition matrix, never a per-process state; it
// is charged n.
func (s *Spec) MaterializedSize() int64 { return int64(s.N) }

// Run implements engine.Payload: build the chain, solve the absorption
// systems, then propagate the start distribution emitting one record per
// CDF round. ctx.MaxRounds caps the emitted CDF rounds (0 = propagate
// until the absorbed mass reaches 1 − 1e-9, capped at 4096 rounds). The
// output is deterministic in the payload alone — ctx.Seed never enters an
// analytic computation.
func (s *Spec) Run(ctx engine.RunContext) (engine.Result, error) {
	n, init, start := s.N, s.Init, s.Start
	if init == "" {
		init = InitPoint
	}
	if init == InitPoint && start == 0 {
		start = n / 2
	}
	c := NewChain(n)
	times := c.AbsorptionTimes()
	wins := c.WinProbabilities()
	dist, err := startDist(n, init, start)
	if err != nil {
		return engine.Result{}, err
	}
	expRounds := dot(times, dist)
	winProb := dot(wins, dist)

	next := make([]float64, n+1)
	ctx.Observe(recordAt(0, n, dist))
	maxR := ctx.MaxRounds
	adaptive := maxR <= 0
	if adaptive {
		maxR = defaultCDFCap
	}
	rounds, absorbed := 0, absorbedMass(dist, n)
	for t := 1; t <= maxR; t++ {
		c.StepInto(dist, next)
		dist, next = next, dist
		absorbed = absorbedMass(dist, n)
		rounds = t
		ctx.Observe(recordAt(t, n, dist))
		if adaptive && absorbed >= defaultCDFTarget {
			break
		}
	}

	winner := int64(ValueLeft)
	if winProb < 0.5 {
		winner = ValueRight
	}
	return engine.Result{
		Rounds:      rounds,
		Reason:      ReasonAnalytic,
		Winner:      winner,
		WinnerCount: int64(n),
		Exact: &engine.ExactStats{
			ExpectedRounds: expRounds,
			WinProbability: winProb,
			AbsorbedByEnd:  absorbed,
		},
	}, nil
}

// startDist builds the initial distribution over chain states.
func startDist(n int, init string, start int) ([]float64, error) {
	dist := make([]float64, n+1)
	switch init {
	case InitPoint:
		if start < 1 || start >= n {
			return nil, fmt.Errorf("exact: start %d is not a transient state of the n=%d chain", start, n)
		}
		dist[start] = 1
	case InitUniform:
		inv := 1 / float64(n-1)
		for i := 1; i < n; i++ {
			dist[i] = inv
		}
	default:
		return nil, fmt.Errorf("exact: unknown init %q", init)
	}
	return dist, nil
}

// dot returns Σ_i vals[i]·dist[i] — the expectation of a per-state vector
// under a state distribution.
func dot(vals, dist []float64) float64 {
	var sum float64
	for i, d := range dist {
		if d != 0 {
			sum += vals[i] * d
		}
	}
	return sum
}

// recordAt summarizes the propagated state distribution at round t: the
// expected plurality (Leader/LeaderCount, ties to the lower value like the
// simulation kinds' tie-break) and the absorption CDF (Absorbed).
func recordAt(t, n int, dist []float64) engine.Record {
	var left float64
	for i, d := range dist {
		left += float64(i) * d
	}
	rec := engine.Record{
		Round:    t,
		N:        int64(n),
		Support:  2,
		Leader:   ValueLeft,
		Absorbed: absorbedMass(dist, n),
	}
	lead := left
	if right := float64(n) - left; right > left {
		rec.Leader, lead = ValueRight, right
	}
	rec.LeaderCount = int64(math.Round(lead))
	return rec
}

// ApplyAxis implements engine.AxisApplier for the exact kind's batch axes.
func (s *Spec) ApplyAxis(param string, v float64) error {
	iv, err := engine.IntAxis(param, v)
	if err != nil {
		return err
	}
	switch param {
	case "n":
		s.N = iv
	case "start":
		s.Start = iv
	default:
		return fmt.Errorf("exact: unknown batch axis %q", param)
	}
	return nil
}

// exactEngine registers the kind.
type exactEngine struct{}

func (exactEngine) NewPayload() engine.Payload { return &Spec{} }

func (exactEngine) Descriptor() engine.Descriptor {
	return engine.Descriptor{
		Kind: "exact",
		Summary: "closed-form two-bin median dynamics: exact absorption times, win probabilities " +
			"and the per-round absorption CDF from the Section 3 Markov chain — no simulation behind the numbers",
		Params: []engine.Param{
			{Name: "n", Type: "int", Min: engine.Bound(2), Max: engine.Bound(MaxSpecN), Doc: "population size (bounded by the O(n³) analytic solve)"},
			{Name: "init", Type: "string", Default: InitPoint, Enum: []string{InitPoint, InitUniform}, Doc: "start distribution over chain states"},
			{Name: "start", Type: "int", Min: engine.Bound(0), Max: engine.Bound(MaxSpecN - 1), Doc: "initial left-bin count for init point (0 = n/2)"},
		},
		Axes:    []string{"n", "start"},
		Example: []byte(`{"n":24,"start":6}`),
	}
}

func init() { engine.Register(exactEngine{}) }
