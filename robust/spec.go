package robust

import (
	"fmt"

	"repro/engine"
	"repro/internal/initspec"
	"repro/internal/model"
)

// This file registers the asynchronous faulty execution as the "robust"
// spec kind of the engine plugin API (package engine).

// Spec is the robust kind's spec payload. The initial values come from the
// shared scalar init table (internal/initspec, the same "init" block the
// median and gossip kinds use); the fault knobs are this package's Options.
type Spec struct {
	// Init describes the scalar initial state.
	Init initspec.Spec `json:"init,omitzero"`
	// LossProb is the independent per-sample loss probability in [0,1].
	LossProb float64 `json:"loss_prob,omitempty"`
	// Crashes freezes that many uniformly chosen processes before the
	// first step.
	Crashes int `json:"crashes,omitempty"`
	// Mode is the crash fault model: "responsive" (default) or "silent"
	// (see Modes).
	Mode string `json:"mode,omitempty"`
}

// Normalize implements engine.Payload.
func (s *Spec) Normalize() {
	s.Init = initspec.Normalize(s.Init)
	if s.Mode == "" {
		s.Mode = ModeResponsive
	}
}

// Validate implements engine.Payload.
func (s *Spec) Validate() error {
	if err := initspec.Check(s.Init); err != nil {
		return err
	}
	silent, err := ModeByName(s.Mode)
	if err != nil {
		return err
	}
	// The init size may be unknown (0) for kinds without a Size hook; the
	// engine's own construction check then catches a bad crash count.
	if n := initspec.Size(s.Init); n > 0 {
		return Check(int(n), Options{
			LossProb: s.LossProb, Crashes: s.Crashes, Silent: silent,
		})
	}
	if !(s.LossProb >= 0 && s.LossProb <= 1) { // NaN fails both
		return fmt.Errorf("robust: LossProb %v outside [0,1]", s.LossProb)
	}
	if s.Crashes < 0 {
		return fmt.Errorf("robust: negative Crashes %d", s.Crashes)
	}
	return nil
}

// MaterializedSize implements engine.Payload: the run holds one state per
// process.
func (s *Spec) MaterializedSize() int64 { return initspec.Size(s.Init) }

// Run implements engine.Payload. ctx.MaxRounds counts parallel rounds (n
// activations each), the unit the round records use: the step cap is
// MaxRounds·n.
func (s *Spec) Run(ctx engine.RunContext) (engine.Result, error) {
	vals, err := initspec.Build(s.Init)
	if err != nil {
		return engine.Result{}, err
	}
	silent, err := ModeByName(s.Mode)
	if err != nil {
		return engine.Result{}, err
	}
	n := len(vals)
	emit := func(round int, state []Value) {
		rec := engine.Record{Round: round, N: int64(n)}
		counts := make(map[Value]int64, 16)
		for _, v := range state {
			counts[v]++
		}
		rec.Support = len(counts)
		for v, c := range counts {
			if c > rec.LeaderCount || (c == rec.LeaderCount && v < rec.Leader) {
				rec.Leader, rec.LeaderCount = v, c
			}
		}
		ctx.Observe(rec)
	}
	maxSteps := 0
	if ctx.MaxRounds > 0 {
		maxSteps = ctx.MaxRounds * n
	}
	eng := NewEngine(vals, Options{
		LossProb: s.LossProb,
		Crashes:  s.Crashes,
		Silent:   silent,
		MaxSteps: maxSteps,
		Observer: emit,
	}, ctx.Seed)
	out := eng.Run()
	reason := model.StopMaxRounds
	if out.Consensus {
		reason = model.StopConsensus
	}
	return engine.Result{
		Rounds:       (out.Steps + n - 1) / n,
		Reason:       reason.String(),
		Winner:       out.Winner,
		WinnerCount:  int64(out.WinnerCount),
		Steps:        out.Steps,
		ParallelTime: out.ParallelTime,
		Dissenters:   out.Dissenters,
	}, nil
}

// ApplyAxis implements engine.AxisApplier.
func (s *Spec) ApplyAxis(param string, v float64) error {
	if ok, err := initspec.AxisApply(&s.Init, param, v); ok {
		return err
	}
	switch param {
	case "loss_prob":
		s.LossProb = v
	case "crashes":
		c, err := engine.IntAxis(param, v)
		if err != nil {
			return err
		}
		s.Crashes = c
	default:
		return fmt.Errorf("robust: unknown batch axis %q", param)
	}
	return nil
}

// FollowSeed implements engine.SeedFollower for the uniform init.
func (s *Spec) FollowSeed(seed uint64) { initspec.FollowSeed(&s.Init, seed) }

// robustEngine registers the kind.
type robustEngine struct{}

func (robustEngine) NewPayload() engine.Payload { return &Spec{} }

func (robustEngine) Descriptor() engine.Descriptor {
	params := engine.ScalarInitParams(initspec.Kinds())
	params = append(params,
		engine.Param{Name: "loss_prob", Type: "float", Min: engine.Bound(0), Max: engine.Bound(1), Doc: "independent per-sample loss probability"},
		engine.Param{Name: "crashes", Type: "int", Min: engine.Bound(0), Doc: "processes frozen before the first step"},
		engine.Param{Name: "mode", Type: "string", Default: ModeResponsive, Enum: Modes(), Doc: "crash fault model"},
	)
	return engine.Descriptor{
		Kind:    "robust",
		Summary: "asynchronous execution of the median rule under message loss and crash faults",
		Params:  params,
		Axes:    []string{"n", "m", "n_low", "loss_prob", "crashes"},
		Example: []byte(`{"init":{"kind":"twovalue","n":48},"loss_prob":0.1}`),
	}
}

func init() { engine.Register(robustEngine{}) }
