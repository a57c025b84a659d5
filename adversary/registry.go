package adversary

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/model"
)

// Params carries the numeric parameters of an adversary strategy (target
// values, delays) in a JSON-friendly form. Constructors reject unknown keys.
type Params map[string]float64

// BudgetSpec is the serializable form of a BudgetFunc: the three budget
// families the paper's analysis distinguishes, scaled by a factor.
//
//	{"kind":"fixed","factor":5}    → Fixed(5)
//	{"kind":"sqrt","factor":1}     → Sqrt(1), the canonical ⌊√n⌋ budget
//	{"kind":"sqrtlog","factor":.5} → SqrtLog(0.5), the stalling regime
type BudgetSpec struct {
	Kind   string  `json:"kind"`
	Factor float64 `json:"factor"`
}

// Func resolves the spec to a BudgetFunc.
func (s BudgetSpec) Func() (BudgetFunc, error) {
	if math.IsNaN(s.Factor) || math.IsInf(s.Factor, 0) {
		return nil, fmt.Errorf("adversary: budget factor %v is not a finite number", s.Factor)
	}
	if s.Factor < 0 {
		return nil, fmt.Errorf("adversary: negative budget factor %v", s.Factor)
	}
	switch s.Kind {
	case "fixed":
		if s.Factor != float64(int(s.Factor)) {
			return nil, fmt.Errorf("adversary: fixed budget needs an integer factor, got %v", s.Factor)
		}
		return Fixed(int(s.Factor)), nil
	case "sqrt":
		return Sqrt(s.Factor), nil
	case "sqrtlog":
		return SqrtLog(s.Factor), nil
	default:
		return nil, fmt.Errorf("adversary: unknown budget kind %q (known: fixed, sqrt, sqrtlog)", s.Kind)
	}
}

// Constructor builds a fresh adversary from a budget and parameters. A fresh
// value per call matters: strategies carry per-run state (Balancer's resolved
// targets, Reviver's extinction clock), so instances must never be shared
// between runs.
type Constructor func(budget BudgetFunc, p Params) (model.Adversary, error)

// New constructs the named adversary with the given budget spec and
// parameters (nil for parameterless strategies).
func New(name string, budget BudgetSpec, p Params) (model.Adversary, error) {
	c, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("adversary: unknown adversary %q (known: %v)", name, names)
	}
	bf, err := budget.Func()
	if err != nil {
		return nil, err
	}
	return c(bf, p)
}

// Ref is the serializable reference to a registered adversary strategy:
// its name, budget family and parameters — the "adversary" block of run
// specs.
type Ref struct {
	Name   string     `json:"name"`
	Budget BudgetSpec `json:"budget"`
	Params Params     `json:"params,omitempty"`
}

// New constructs a fresh instance of the referenced adversary (adversaries
// carry per-run state, so instances must never be shared between runs).
func (r Ref) New() (model.Adversary, error) { return New(r.Name, r.Budget, r.Params) }

// Names returns the strategy names in sorted order, in a slice the caller
// owns.
func Names() []string { return slices.Clone(names) }

// intParam reads an integral parameter, def if p does not set it.
func intParam(name string, p Params, key string, def int64) (int64, error) {
	v, ok := p[key]
	if !ok {
		return def, nil
	}
	if v != float64(int64(v)) {
		return 0, fmt.Errorf("adversary: %s parameter %q must be an integer, got %v", name, key, v)
	}
	return int64(v), nil
}

// rejectUnknown reports the smallest key of p that known does not list,
// before any value is checked, so one spec always gets one error text.
func rejectUnknown(name string, p Params, known ...string) error {
	first, found := "", false
	for k := range p {
		if !slices.Contains(known, k) && (!found || k < first) {
			first, found = k, true
		}
	}
	if found {
		return fmt.Errorf("adversary: %s does not know parameter %q", name, first)
	}
	return nil
}

// constructors maps every strategy name a spec can carry to its
// constructor. It is a fixed table: a new strategy is added here, in place.
var constructors = map[string]Constructor{
	"balancer": func(budget BudgetFunc, p Params) (model.Adversary, error) {
		if err := rejectUnknown("balancer", p, "low", "high"); err != nil {
			return nil, err
		}
		low, err := intParam("balancer", p, "low", 0)
		if err != nil {
			return nil, err
		}
		high, err := intParam("balancer", p, "high", 0)
		if err != nil {
			return nil, err
		}
		return NewBalancer(budget, Value(low), Value(high)), nil
	},
	"reviver": func(budget BudgetFunc, p Params) (model.Adversary, error) {
		// Reviver always runs with budget 1 (it never needs more); the
		// budget spec is accepted for uniformity and ignored.
		if err := rejectUnknown("reviver", p, "target", "delay"); err != nil {
			return nil, err
		}
		target, err := intParam("reviver", p, "target", 1)
		if err != nil {
			return nil, err
		}
		delay, err := intParam("reviver", p, "delay", 0)
		if err != nil {
			return nil, err
		}
		if delay < 0 {
			return nil, fmt.Errorf("adversary: reviver delay must be >= 0, got %d", delay)
		}
		return NewReviver(Value(target), int(delay)), nil
	},
	"hider": func(budget BudgetFunc, p Params) (model.Adversary, error) {
		if err := rejectUnknown("hider", p, "held"); err != nil {
			return nil, err
		}
		held, err := intParam("hider", p, "held", 1)
		if err != nil {
			return nil, err
		}
		return NewHider(budget, Value(held)), nil
	},
	"flipper": func(budget BudgetFunc, p Params) (model.Adversary, error) {
		if err := rejectUnknown("flipper", p, "a", "b"); err != nil {
			return nil, err
		}
		a, err := intParam("flipper", p, "a", 1)
		if err != nil {
			return nil, err
		}
		b, err := intParam("flipper", p, "b", 2)
		if err != nil {
			return nil, err
		}
		return NewFlipper(budget, Value(a), Value(b)), nil
	},
	"random-noise": func(budget BudgetFunc, p Params) (model.Adversary, error) {
		if err := rejectUnknown("random-noise", p); err != nil {
			return nil, err
		}
		return NewRandomNoise(budget), nil
	},
	"median-splitter": func(budget BudgetFunc, p Params) (model.Adversary, error) {
		if err := rejectUnknown("median-splitter", p); err != nil {
			return nil, err
		}
		return NewMedianSplitter(budget), nil
	},
}

// names is constructors' keys, sorted once.
var names = slices.Sorted(maps.Keys(constructors))
