package gossip

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/adversary"
	"repro/engine"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/initspec"
	"repro/internal/model"
	"repro/rules"
)

// This file registers the message-passing network simulator as the
// "gossip" spec kind of the engine plugin API (package engine) and gives
// drop selectors — previously function values no spec could express —
// addressable registry names:
//
//	"fair"                arrival order (KeepFirst), the default
//	"drop-value:<victim>" adversarial DropValue against the given value
//
// The kind used to be reachable only as the median kind's "gossip" engine
// (with no selector field at all); it is now a family of its own, with the
// network model's knobs (cap_factor, selector) as first-class parameters.

// SelectorByName resolves a serialized drop-selector name to a fresh
// DropSelector instance ("" means "fair"). DropValue selectors carry
// per-round state, so a new instance per run is required.
func SelectorByName(name string) (DropSelector, error) {
	switch {
	case name == "" || name == "fair":
		return KeepFirst{}, nil
	case strings.HasPrefix(name, "drop-value:"):
		raw := strings.TrimPrefix(name, "drop-value:")
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gossip: bad drop-value victim %q in selector %q", raw, name)
		}
		return &DropValue{Victim: Value(v)}, nil
	default:
		return nil, fmt.Errorf("gossip: unknown drop selector %q (known: %v)", name, SelectorNames())
	}
}

// SelectorNames returns the selector name forms in sorted order
// ("drop-value:<victim>" is a template: any int64 victim value is legal).
func SelectorNames() []string { return []string{"drop-value:<victim>", "fair"} }

// Spec is the gossip kind's spec payload: the scalar init and rule blocks
// the median kind uses, plus the network model's own knobs.
type Spec struct {
	// Init describes the scalar initial state.
	Init initspec.Spec `json:"init,omitzero"`
	// Rule references a registered update rule ("" = median).
	Rule rules.Ref `json:"rule,omitzero"`
	// Adversary optionally references a registered strategy (nil = none).
	Adversary *adversary.Ref `json:"adversary,omitempty"`
	// CapFactor scales the per-round request capacity ⌈CapFactor·log₂ n⌉;
	// 0 = default 4; negative = unlimited.
	CapFactor float64 `json:"cap_factor,omitempty"`
	// Selector names the drop selector saturated processes apply (see
	// SelectorByName; "" = "fair").
	Selector string `json:"selector,omitempty"`
	// AlmostSlack enables almost-stable detection; Window is the
	// stability window (0 = default).
	AlmostSlack int `json:"almost_slack,omitempty"`
	Window      int `json:"window,omitempty"`
}

// ruleOrDefault resolves the rule reference ("" means median) — the one
// place the kind's default rule is spelled, shared by Normalize, Validate
// and Run so raw (not-yet-normalized) payloads behave like canonical ones.
func (s *Spec) ruleOrDefault() rules.Ref {
	r := s.Rule
	if r.Name == "" {
		r.Name = "median"
	}
	return r
}

// Normalize implements engine.Payload.
func (s *Spec) Normalize() {
	s.Init = initspec.Normalize(s.Init)
	s.Rule = s.ruleOrDefault()
	if len(s.Rule.Params) == 0 {
		s.Rule.Params = nil
	}
	if s.Adversary != nil && len(s.Adversary.Params) == 0 {
		s.Adversary.Params = nil
	}
	if s.Selector == "" {
		s.Selector = "fair"
	}
}

// Validate implements engine.Payload. The network calls only
// CorruptBalls, at the start of each round, so an adversary without it is
// rejected rather than run unattacked.
func (s *Spec) Validate() error {
	if err := initspec.Check(s.Init); err != nil {
		return err
	}
	if _, err := s.ruleOrDefault().New(); err != nil {
		return err
	}
	if s.Adversary != nil {
		adv, err := s.Adversary.New()
		if err != nil {
			return err
		}
		if err := core.CheckHook(adv, "gossip", true, core.BeforeRound); err != nil {
			return err
		}
	}
	if _, err := SelectorByName(s.Selector); err != nil {
		return err
	}
	if s.AlmostSlack < 0 || s.Window < 0 {
		return fmt.Errorf("gossip: negative almost_slack or window")
	}
	if math.IsNaN(s.CapFactor) || math.IsInf(s.CapFactor, 0) {
		return fmt.Errorf("gossip: cap_factor %v is not a finite number", s.CapFactor)
	}
	return nil
}

// MaterializedSize implements engine.Payload: the network holds one state
// per process.
func (s *Spec) MaterializedSize() int64 { return initspec.Size(s.Init) }

// Run implements engine.Payload.
func (s *Spec) Run(ctx engine.RunContext) (engine.Result, error) {
	values, err := initspec.Build(s.Init)
	if err != nil {
		return engine.Result{}, err
	}
	r, err := s.ruleOrDefault().New()
	if err != nil {
		return engine.Result{}, err
	}
	var adv model.Adversary
	if s.Adversary != nil {
		adv, err = s.Adversary.New()
		if err != nil {
			return engine.Result{}, err
		}
	}
	sel, err := SelectorByName(s.Selector)
	if err != nil {
		return engine.Result{}, err
	}
	n := int64(len(values))
	nw := New(assign.Config(values), r, adv, ctx.Seed, Options{
		CapFactor:   s.CapFactor,
		Selector:    sel,
		MaxRounds:   ctx.MaxRounds,
		AlmostSlack: s.AlmostSlack,
		Window:      s.Window,
		Observer: func(round int, vals []Value, counts []int64) {
			ctx.Observe(engine.LeaderRecord(round, n, vals, counts))
		},
	})
	out := nw.Run()
	return engine.Result{
		Rounds:      out.Rounds,
		Reason:      out.Reason.String(),
		Winner:      out.Winner,
		WinnerCount: out.WinnerCount,
		Messages: &engine.MessageStats{
			RequestsSent:    out.Stats.RequestsSent,
			RequestsDropped: out.Stats.RequestsDropped,
			MaxInDegree:     out.Stats.MaxInDegree,
		},
	}, nil
}

// ApplyAxis implements engine.AxisApplier.
func (s *Spec) ApplyAxis(param string, v float64) error {
	if ok, err := initspec.AxisApply(&s.Init, param, v); ok {
		return err
	}
	switch param {
	case "cap_factor":
		s.CapFactor = v
	default:
		return fmt.Errorf("gossip: unknown batch axis %q", param)
	}
	return nil
}

// FollowSeed implements engine.SeedFollower for the uniform init.
func (s *Spec) FollowSeed(seed uint64) { initspec.FollowSeed(&s.Init, seed) }

// gossipEngine registers the kind.
type gossipEngine struct{}

func (gossipEngine) NewPayload() engine.Payload { return &Spec{} }

func (gossipEngine) Descriptor() engine.Descriptor {
	params := engine.ScalarInitParams(initspec.Kinds())
	params = append(params, engine.RuleRefParams(rules.Names(), "median")...)
	params = append(params, engine.AdversaryRefParams(adversary.Names())...)
	params = append(params,
		engine.Param{Name: "cap_factor", Type: "float", Default: "4", Doc: "per-round request capacity scale ⌈cap_factor·log₂ n⌉ (negative = unlimited)"},
		engine.Param{Name: "selector", Type: "string", Default: "fair", Doc: "drop selector at saturated processes: \"fair\" or \"drop-value:<victim>\""},
		engine.Param{Name: "almost_slack", Type: "int", Min: engine.Bound(0), Doc: "almost-stable slack (0 = off)"},
		engine.Param{Name: "window", Type: "int", Min: engine.Bound(0), Default: "8", Doc: "stability window"},
	)
	return engine.Descriptor{
		Kind:    "gossip",
		Summary: "full message-passing simulation of the paper's network model: private peer numberings, per-round request caps, named drop selectors",
		Params:  params,
		Axes:    []string{"n", "m", "n_low", "cap_factor"},
		Example: []byte(`{"init":{"kind":"twovalue","n":48}}`),
	}
}

func init() { engine.Register(gossipEngine{}) }
