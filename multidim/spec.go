package multidim

import (
	"fmt"

	"repro/engine"
	"repro/internal/model"
)

// This file registers the coordinate-wise median dynamics as the
// "multidim" spec kind of the engine plugin API (package engine).

// Spec is the multidim kind's spec payload: a point-set generator
// reference, an optional adversary reference — both resolved through this
// package's name tables — and the engine selector.
type Spec struct {
	// Init describes the initial point set (see InitKinds).
	Init InitSpec `json:"init,omitzero"`
	// Adversary optionally references a registered strategy (nil = none;
	// see AdversaryNames).
	Adversary *AdversaryRef `json:"adversary,omitempty"`
	// Engine selects the simulator by name: auto (the default), process
	// (exact per-process, every adversary) or count (distribution over
	// distinct tuples, O(k·d) memory, count-aware adversaries). "auto"
	// stays "auto" in the canonical encoding — the cache key must not
	// depend on which engine auto resolves to.
	Engine string `json:"engine,omitempty"`
}

// Engine names of the multidim kind (see EngineNames).
const (
	// EngineAuto picks count when the spec-level distinct-tuple support
	// bound is small relative to n and the adversary (if any) runs at
	// count level, process otherwise.
	EngineAuto = "auto"
	// EngineProcess is the exact per-process engine (multidim.Engine).
	EngineProcess = "process"
	// EngineCount is the count-level engine (multidim.CountEngine).
	EngineCount = "count"
)

// EngineNames returns the multidim engine names in sorted order.
func EngineNames() []string { return []string{EngineAuto, EngineCount, EngineProcess} }

// CountSupportFactor is auto-selection's support threshold: the count
// engine wins once each distinct tuple is shared by CountSupportFactor
// processes on average (its per-round accumulator then stays well below
// the per-process engine's O(n·d) state).
const CountSupportFactor = 16

// PickEngine resolves "auto" for a population of n processes whose
// distinct-tuple support is bounded by support (the InitSupport spec-level
// bound — never a materialized count, so auto-selection costs O(1)): count
// when the support bound is small relative to n (support·CountSupportFactor
// ≤ n) and the adversary, if any, runs at count level (CountCompatible),
// process otherwise. support ≤ 0 means unknown, which resolves to process.
// Deterministic in its inputs, so every run of one spec picks the same
// engine.
func PickEngine(n, support int64, adv Adversary) string {
	if support > 0 && support <= n/CountSupportFactor && CountCompatible(adv) {
		return EngineCount
	}
	return EngineProcess
}

// CountCompatible reports whether the adversary can run on the count
// engine: nil, or an implementation of the CountAdversary contract.
func CountCompatible(adv Adversary) bool {
	if adv == nil {
		return true
	}
	_, ok := adv.(CountAdversary)
	return ok
}

// AdversaryRef is the serializable reference to a registered multidim
// adversary.
type AdversaryRef struct {
	Name   string `json:"name"`
	Params Params `json:"params,omitempty"`
}

// Normalize implements engine.Payload.
func (s *Spec) Normalize() {
	s.Init = NormalizeInit(s.Init)
	if s.Adversary != nil && len(s.Adversary.Params) == 0 {
		s.Adversary.Params = nil
	}
	if s.Engine == "" {
		s.Engine = EngineAuto
	}
}

// Validate implements engine.Payload.
func (s *Spec) Validate() error {
	if err := CheckInit(s.Init); err != nil {
		return err
	}
	var adv Adversary
	if a := s.Adversary; a != nil {
		var err error
		adv, err = NewAdversary(a.Name, a.Params)
		if err != nil {
			return err
		}
	}
	switch s.Engine {
	case "", EngineAuto, EngineProcess:
	case EngineCount:
		if adv != nil && !CountCompatible(adv) {
			return fmt.Errorf("multidim: adversary %q has no count-level implementation (CountAdversary); use engine %q or %q", s.Adversary.Name, EngineProcess, EngineAuto)
		}
	default:
		return fmt.Errorf("multidim: unknown engine %q (known: %v)", s.Engine, EngineNames())
	}
	return nil
}

// MaterializedSize implements engine.Payload: runs landing on the
// count engine hold the distribution over at most InitSupport distinct
// tuples — O(k·d) memory, independent of n — which is what admission
// control should charge for. The engine resolves exactly as Run resolves
// it, so admission and execution always agree.
func (s *Spec) MaterializedSize() int64 {
	n := InitSize(s.Init)
	var adv Adversary
	if a := s.Adversary; a != nil {
		var err error
		adv, err = NewAdversary(a.Name, a.Params)
		if err != nil {
			return n
		}
	}
	selected := s.Engine
	if selected == "" || selected == EngineAuto {
		selected = PickEngine(n, InitSupport(s.Init), adv)
	}
	if selected == EngineCount && CountCompatible(adv) {
		if k := InitSupport(s.Init); k > 0 && k < n {
			return k
		}
	}
	return n
}

// Run implements engine.Payload. The engine selector resolves here:
// "auto" picks through PickEngine on the spec-level (n, support-bound)
// pair, which is deterministic in the spec, so a cached result and a fresh
// run of the same spec always took the same engine — and the count path
// builds its start state with BuildInitCounts, so a count (or
// auto-resolved-to-count) run never materializes the O(n·d) point slice;
// only the process engine falls back to BuildInit.
func (s *Spec) Run(ctx engine.RunContext) (engine.Result, error) {
	var adv Adversary
	var err error
	if a := s.Adversary; a != nil {
		adv, err = NewAdversary(a.Name, a.Params)
		if err != nil {
			return engine.Result{}, err
		}
	}
	selected := s.Engine
	if selected == "" || selected == EngineAuto {
		selected = PickEngine(InitSize(s.Init), InitSupport(s.Init), adv)
	}
	var out Result
	switch selected {
	case EngineCount:
		if !CountCompatible(adv) {
			return engine.Result{}, fmt.Errorf("multidim: adversary %q has no count-level implementation (CountAdversary)", s.Adversary.Name)
		}
		tuples, counts, err := BuildInitCounts(s.Init)
		if err != nil {
			return engine.Result{}, err
		}
		var countAdv CountAdversary
		if adv != nil {
			countAdv = adv.(CountAdversary)
		}
		out = s.runCount(ctx, tuples, counts, countAdv)
	case EngineProcess:
		pts, err := BuildInit(s.Init)
		if err != nil {
			return engine.Result{}, err
		}
		out = s.runProcess(ctx, pts, adv)
	default:
		return engine.Result{}, fmt.Errorf("multidim: unknown engine %q (known: %v)", selected, EngineNames())
	}
	reason := model.StopMaxRounds
	if out.Consensus {
		reason = model.StopConsensus
	}
	tv, cv := out.TupleValid, out.CoordValid
	return engine.Result{
		Rounds:      out.Rounds,
		Reason:      reason.String(),
		WinnerCount: int64(out.WinnerCount),
		WinnerPoint: append([]int64(nil), out.Winner...),
		TupleValid:  &tv,
		CoordValid:  &cv,
	}, nil
}

// runProcess executes the per-process engine, reporting per-round state
// summaries through the RunContext observer (the cancellation point).
func (s *Spec) runProcess(ctx engine.RunContext, pts []Point, adv Adversary) Result {
	n := int64(len(pts))
	emit := func(round int, state []Point) {
		winner, count, support := Plurality(state)
		ctx.Observe(engine.Record{
			Round: round, N: n, Support: support,
			LeaderCount: int64(count),
			LeaderPoint: leaderPoint(winner),
		})
	}
	eng := NewEngine(pts, adv, ctx.Seed, Options{
		MaxRounds: ctx.MaxRounds,
		Observer:  emit,
	})
	emit(0, eng.State())
	return eng.Run()
}

// leaderPoint copies a record's plurality tuple.
func leaderPoint(p Point) *[]int64 {
	lp := append([]int64(nil), p...)
	return &lp
}

// runCount executes the count-level engine over the count-native initial
// distribution. Round records are built straight from the tuple counts —
// O(support) per round, never rematerializing per-process state — and the
// observer still fires every round, so mid-run cancellation
// (DELETE /v1/runs) keeps working.
func (s *Spec) runCount(ctx engine.RunContext, tuples []Point, counts []int64, adv CountAdversary) Result {
	var n int64
	for _, c := range counts {
		n += c
	}
	emit := func(round int, tuples []Point, counts []int64) {
		winner, count := DistPlurality(tuples, counts)
		ctx.Observe(engine.Record{
			Round: round, N: n, Support: len(tuples),
			LeaderCount: count,
			LeaderPoint: leaderPoint(winner),
		})
	}
	eng := NewCountEngineDist(tuples, counts, adv, ctx.Seed, CountOptions{
		MaxRounds: ctx.MaxRounds,
		Observer:  emit,
	})
	emit(0, tuples, counts)
	return eng.Run()
}

// ApplyAxis implements engine.AxisApplier.
func (s *Spec) ApplyAxis(param string, v float64) error {
	iv, err := engine.IntAxis(param, v)
	if err != nil {
		return err
	}
	switch param {
	case "n":
		s.Init.N = iv
	case "m":
		s.Init.M = iv
	case "d":
		s.Init.D = iv
	default:
		return fmt.Errorf("multidim: unknown batch axis %q", param)
	}
	return nil
}

// FollowSeed implements engine.SeedFollower for the random point set.
func (s *Spec) FollowSeed(seed uint64) {
	if s.Init.Kind == "random" {
		s.Init.Seed = seed
	}
}

// multidimEngine registers the kind.
type multidimEngine struct{}

func (multidimEngine) NewPayload() engine.Payload { return &Spec{} }

func (multidimEngine) Descriptor() engine.Descriptor {
	return engine.Descriptor{
		Kind:    "multidim",
		Summary: "coordinate-wise median dynamics on d-dimensional points (the paper's Section 6 future work)",
		Params: []engine.Param{
			{Name: "init.kind", Type: "string", Enum: InitKinds(), Doc: "initial point-set generator"},
			{Name: "init.n", Type: "int", Min: engine.Bound(1), Doc: "population size"},
			{Name: "init.d", Type: "int", Min: engine.Bound(1), Default: "1", Doc: "point dimension"},
			{Name: "init.m", Type: "int", Doc: "per-coordinate value range for random (0 = n)"},
			{Name: "init.seed", Type: "uint", Doc: "seed of randomized generators (random)"},
			{Name: "adversary.name", Type: "string", Enum: AdversaryNames(), Doc: "adversary strategy (omit the block for none)"},
			{Name: "adversary.params", Type: "object", Doc: "strategy parameters (numeric, strategy-specific)"},
			{Name: "adversary.params.t", Type: "int", Min: engine.Bound(0), Doc: "per-round budget of the noise strategy"},
			{Name: "engine", Type: "string", Default: EngineAuto, Enum: EngineNames(), Doc: "simulator: process (exact per-process), count (distribution over distinct tuples, O(k·d) memory, count-aware adversaries) or auto (count when the spec-level support bound is small relative to n and the adversary, if any, runs at count level)"},
		},
		Axes:    []string{"n", "m", "d"},
		Example: []byte(`{"init":{"kind":"random","n":64,"d":2,"m":2,"seed":3}}`),
	}
}

func init() { engine.Register(multidimEngine{}) }
