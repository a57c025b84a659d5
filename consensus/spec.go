package consensus

import (
	"fmt"

	"repro/adversary"
	"repro/engine"
	"repro/internal/core"
	"repro/internal/initspec"
	"repro/rules"
)

// This file registers the scalar median dynamics as the "median" spec kind
// of the engine plugin API (package engine) — the default kind of the
// simulation service. The Spec payload is the JSON form of a Config with
// every component referenced by registry name.

// Spec is the median kind's spec payload: the serializable form of a
// Config. Rules, adversaries, engines, timings and initial states are
// referenced by registry name (rules.New, adversary.New, EngineByName,
// BuildInit).
type Spec struct {
	// Init describes the scalar initial state (see InitKinds).
	Init InitSpec `json:"init,omitzero"`
	// Rule references a registered update rule (see rules.Names).
	Rule rules.Ref `json:"rule,omitzero"`
	// Adversary optionally references a registered strategy (nil = none).
	Adversary *adversary.Ref `json:"adversary,omitempty"`
	// AlmostSlack enables almost-stable detection (see Config).
	AlmostSlack int `json:"almost_slack,omitempty"`
	// Window is the stability window (0 = default).
	Window int `json:"window,omitempty"`
	// Timing is the adversary hook point: "before-round" (default) or
	// "after-choices".
	Timing string `json:"timing,omitempty"`
	// Engine selects the simulator by name: auto (the default: count
	// unless the adversary lacks a count view, then ball), ball, count, or
	// twobin (count on at most two initial values, kept for existing
	// specs). The message-passing simulator is no longer an engine of this
	// kind — it is the "gossip" spec kind.
	Engine string `json:"engine,omitempty"`
	// Workers parallelises the ball engine (0/1 = sequential).
	Workers int `json:"workers,omitempty"`
}

// Normalize implements engine.Payload.
func (s *Spec) Normalize() {
	s.Init = initspec.Normalize(s.Init)
	if s.Engine == "" {
		s.Engine = "auto"
	}
	if s.Timing == "" {
		s.Timing = "before-round"
	}
	if len(s.Rule.Params) == 0 {
		s.Rule.Params = nil
	}
	if s.Adversary != nil && len(s.Adversary.Params) == 0 {
		s.Adversary.Params = nil
	}
	if s.Workers == 1 {
		s.Workers = 0 // one worker == sequential == the default
	}
}

// Validate implements engine.Payload: every registry reference must
// resolve, the init spec must be well-formed, and the engine the spec runs
// on (auto resolved by the same pick Run uses) must call the adversary at
// the spec's timing — all without materializing the O(n) initial state.
func (s *Spec) Validate() error {
	if err := initspec.Check(s.Init); err != nil {
		return err
	}
	cfg, err := s.components(0)
	if err != nil {
		return err
	}
	eng := pick(cfg.Engine, cfg.Adversary)
	return core.CheckHook(cfg.Adversary, eng.String(), eng == EngineBall, cfg.Timing)
}

// Run implements engine.Payload. The engine resolves here, from the
// registry components alone, through the same pick Run uses: runs on the
// count engine (count, twobin, and auto unless the adversary lacks a count
// view) build their start state with BuildInitDist and execute through
// RunDist, so a huge-n count run never materializes the O(n) value vector;
// only the ball engine falls back to BuildInit.
func (s *Spec) Run(ctx engine.RunContext) (engine.Result, error) {
	cfg, err := s.components(ctx.MaxRounds)
	if err != nil {
		return engine.Result{}, err
	}
	cfg.Seed = ctx.Seed
	var n int64
	cfg.Observer = func(round int, vals []Value, counts []int64) {
		ctx.Observe(engine.LeaderRecord(round, n, vals, counts))
	}
	var out Result
	if pick(cfg.Engine, cfg.Adversary) == EngineBall {
		cfg.Values, err = initspec.Build(s.Init)
		if err != nil {
			return engine.Result{}, err
		}
		n = int64(len(cfg.Values))
		out = Run(cfg)
	} else {
		d, err := initspec.BuildDist(s.Init)
		if err != nil {
			return engine.Result{}, err
		}
		n = d.N()
		out = RunDist(cfg, d)
	}
	return engine.Result{
		Rounds:      out.Rounds,
		Reason:      out.Reason.String(),
		Winner:      out.Winner,
		WinnerCount: out.WinnerCount,
		StableSince: out.StableSince,
	}, nil
}

// MaterializedSize implements engine.Payload: the number of
// per-process states the run will actually allocate. Runs on the count
// engine hold the distribution, O(support), never the O(n) vector — which
// is what admission control should charge for. The engine resolves
// through the same pick Run uses.
func (s *Spec) MaterializedSize() int64 {
	n := initspec.Size(s.Init)
	cfg, err := s.components(0)
	if err != nil || pick(cfg.Engine, cfg.Adversary) == EngineBall {
		return n
	}
	if k := initspec.Support(s.Init); k > 0 && k < n {
		return k
	}
	return n
}

// components resolves every registry reference except the initial state
// (Run fills Values; Validate deliberately leaves them empty).
func (s *Spec) components(maxRounds int) (Config, error) {
	if s.Engine == "gossip" {
		return Config{}, fmt.Errorf("consensus: the message-passing simulator is the %q spec kind now; submit {\"kind\":\"gossip\",...} instead of engine \"gossip\"", "gossip")
	}
	rule, err := s.Rule.New()
	if err != nil {
		return Config{}, err
	}
	var adv Adversary
	if s.Adversary != nil {
		adv, err = s.Adversary.New()
		if err != nil {
			return Config{}, err
		}
	}
	eng, err := EngineByName(s.Engine)
	if err != nil {
		return Config{}, err
	}
	timing, err := TimingByName(s.Timing)
	if err != nil {
		return Config{}, err
	}
	if s.AlmostSlack < 0 || s.Window < 0 || s.Workers < 0 {
		return Config{}, fmt.Errorf("consensus: negative almost_slack, window or workers")
	}
	return Config{
		Rule:        rule,
		Adversary:   adv,
		MaxRounds:   maxRounds,
		AlmostSlack: s.AlmostSlack,
		Window:      s.Window,
		Timing:      timing,
		Engine:      eng,
		Workers:     s.Workers,
	}, nil
}

// ApplyAxis implements engine.AxisApplier for the median kind's batch axes.
func (s *Spec) ApplyAxis(param string, v float64) error {
	if ok, err := initspec.AxisApply(&s.Init, param, v); ok {
		return err
	}
	switch param {
	case "k":
		k, err := engine.IntAxis(param, v)
		if err != nil {
			return err
		}
		if s.Rule.Params == nil {
			s.Rule.Params = map[string]float64{}
		}
		s.Rule.Params["k"] = float64(k)
	case "almost_slack":
		as, err := engine.IntAxis(param, v)
		if err != nil {
			return err
		}
		s.AlmostSlack = as
	case "budget_factor":
		if s.Adversary == nil {
			return fmt.Errorf("consensus: batch axis \"budget_factor\" needs a template adversary")
		}
		s.Adversary.Budget.Factor = v
	default:
		return fmt.Errorf("consensus: unknown batch axis %q", param)
	}
	return nil
}

// FollowSeed implements engine.SeedFollower: the uniform init consumes its
// own seed, which follows the run seed so batch repetitions draw distinct
// initial states.
func (s *Spec) FollowSeed(seed uint64) { initspec.FollowSeed(&s.Init, seed) }

// medianEngine registers the kind.
type medianEngine struct{}

func (medianEngine) NewPayload() engine.Payload { return &Spec{} }

func (medianEngine) Descriptor() engine.Descriptor {
	params := engine.ScalarInitParams(initspec.Kinds())
	params = append(params, engine.RuleRefParams(rules.Names(), "")...)
	params = append(params, engine.AdversaryRefParams(adversary.Names())...)
	params = append(params,
		engine.Param{Name: "almost_slack", Type: "int", Min: engine.Bound(0), Doc: "almost-stable slack (0 = off)"},
		engine.Param{Name: "window", Type: "int", Min: engine.Bound(0), Default: "8", Doc: "stability window"},
		engine.Param{Name: "timing", Type: "string", Default: "before-round", Enum: []string{"before-round", "after-choices"}, Doc: "adversary hook point"},
		engine.Param{Name: "engine", Type: "string", Default: "auto", Enum: EngineNames(), Doc: "balls-and-bins simulator"},
		engine.Param{Name: "workers", Type: "int", Min: engine.Bound(0), Doc: "ball-engine parallelism (0/1 = sequential)"},
	)
	return engine.Descriptor{
		Kind:    "median",
		Default: true,
		Summary: "the paper's scalar dynamics: synchronous rounds of a registry-named update rule under an optional T-bounded adversary",
		Params:  params,
		Axes:    []string{"n", "m", "n_low", "k", "almost_slack", "budget_factor"},
		Example: []byte(`{"init":{"kind":"twovalue","n":48},"rule":{"name":"median"}}`),
	}
}

func init() { engine.Register(medianEngine{}) }
