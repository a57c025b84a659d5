package rules

import (
	"fmt"
	"maps"
	"slices"
)

// Params carries the numeric parameters of parameterised rules (KMedian's K,
// for instance) in a JSON-friendly form. Unknown keys are rejected by the
// constructors so a typo in a serialized spec fails loudly instead of
// silently running the default rule.
type Params map[string]float64

// Constructor builds a rule instance from its parameters. Constructors must
// return a fresh value on every call (rules are stateless today, but the
// contract keeps stateful rules possible).
type Constructor func(p Params) (Rule, error)

// New constructs the named rule with the given parameters (nil for
// parameterless rules).
func New(name string, p Params) (Rule, error) {
	c, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("rules: unknown rule %q (known: %v)", name, names)
	}
	return c(p)
}

// Ref is the serializable reference to a registered rule: its name plus
// its parameters — the "rule" block of run specs.
type Ref struct {
	Name   string `json:"name"`
	Params Params `json:"params,omitempty"`
}

// New constructs a fresh instance of the referenced rule.
func (r Ref) New() (Rule, error) { return New(r.Name, r.Params) }

// Names returns the rule names in sorted order, in a slice the caller owns.
func Names() []string { return slices.Clone(names) }

// noParams errors when p carries any key, naming the smallest — used by
// parameterless rules.
func noParams(name string, p Params) error {
	if k, ok := unknownParam(p); ok {
		return fmt.Errorf("rules: %s takes no parameters, got %q", name, k)
	}
	return nil
}

// unknownParam returns the smallest key of p that known does not list, so
// one spec always gets one error text.
func unknownParam(p Params, known ...string) (first string, found bool) {
	for k := range p {
		if !slices.Contains(known, k) && (!found || k < first) {
			first, found = k, true
		}
	}
	return first, found
}

// simple wraps a parameterless rule value as a Constructor.
func simple(name string, r Rule) Constructor {
	return func(p Params) (Rule, error) {
		if err := noParams(name, p); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// constructors maps every rule name a spec can carry to its constructor. It
// is a fixed table: a new rule is added here, in place.
var constructors = map[string]Constructor{
	"median":   simple("median", Median{}),
	"majority": simple("majority", Majority{}),
	"minimum":  simple("minimum", Minimum{}),
	"maximum":  simple("maximum", Maximum{}),
	"mean":     simple("mean", Mean{}),
	"voter":    simple("voter", Voter{}),
	"kmedian": func(p Params) (Rule, error) {
		if key, ok := unknownParam(p, "k"); ok {
			return nil, fmt.Errorf("rules: kmedian knows only parameter \"k\", got %q", key)
		}
		k := 1
		if v, ok := p["k"]; ok {
			if v != float64(int(v)) || int(v) < 1 {
				return nil, fmt.Errorf("rules: kmedian parameter k must be a positive integer, got %v", v)
			}
			k = int(v)
		}
		return KMedian{K: k}, nil
	},
}

// names is constructors' keys, sorted once.
var names = slices.Sorted(maps.Keys(constructors))
