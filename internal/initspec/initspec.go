// Package initspec holds the fixed table of serializable scalar
// initial-state generators shared by every family that starts from a value
// vector (the median, robust and gossip spec kinds). It used to live
// inside package consensus; it is a leaf package so that the families
// registered beside consensus (internal/gossip, robust) resolve init specs
// without importing it. Package consensus re-exports what library callers
// need (consensus.InitSpec, BuildInit, BuildInitDist, InitKinds), so they
// never see this package.
package initspec

import (
	"fmt"
	"maps"
	"slices"

	"repro/engine"
	"repro/internal/assign"
	"repro/internal/model"
	"repro/internal/randx"
	"repro/internal/rng"
)

// Value aliases the shared process-value type.
type Value = model.Value

// Spec is the serializable description of an initial state: a generator
// kind plus the union of the parameters the built-in generators take. Unused
// fields are zero and omitted from JSON.
type Spec struct {
	// Kind selects the generator (see Kinds).
	Kind string `json:"kind"`
	// N is the population size (all kinds except blocks).
	N int `json:"n,omitempty"`
	// M is the number of initial values (uniform, evenblocks).
	M int `json:"m,omitempty"`
	// NLow is the low-bin population for twovalue (0 means n/2).
	NLow int `json:"n_low,omitempty"`
	// Low and High are the two values of twovalue (0,0 means 1,2).
	Low  Value `json:"low,omitempty"`
	High Value `json:"high,omitempty"`
	// Seed drives randomized generators (uniform).
	Seed uint64 `json:"seed,omitempty"`
	// Counts is the count vector for blocks.
	Counts []int64 `json:"counts,omitempty"`
}

// Generator materializes an initial state from its spec; every hook is
// required. Generate builds the per-process value vector. Check validates
// a spec without allocating the O(n) state — the service layer validates
// every submitted spec. Normalize rewrites a spec to its canonical form:
// defaulted fields made explicit, fields the kind ignores zeroed — so specs
// describing the same state serialize (and hash) identically. Size reports
// the population the spec would materialize without allocating it, letting
// servers enforce admission limits.
//
// GenerateDist builds the initial state directly at the distribution level
// — sorted distinct values with positive counts — so the count-level
// engines start without ever allocating the O(n) value vector. Support
// reports an upper bound on the number of distinct values the spec
// realizes, computable from the spec alone; admission control (the median
// kind's MaterializedSize) uses it in place of a materialized support
// count.
type Generator struct {
	Generate     func(s Spec) ([]Value, error)
	GenerateDist func(s Spec) (assign.Dist, error)
	Check        func(s Spec) error
	Normalize    func(s Spec) Spec
	Size         func(s Spec) int64
	Support      func(s Spec) int64
}

func generatorFor(kind string) (Generator, error) {
	g, ok := generators[kind]
	if !ok {
		return Generator{}, fmt.Errorf("consensus: unknown init kind %q (known: %v)", kind, kinds)
	}
	return g, nil
}

// Build materializes the initial state described by s.
func Build(s Spec) ([]Value, error) {
	g, err := generatorFor(s.Kind)
	if err != nil {
		return nil, err
	}
	return g.Generate(s)
}

// BuildDist materializes the value distribution described by s — sorted
// distinct values and their positive counts — without building the
// per-process value vector.
func BuildDist(s Spec) (assign.Dist, error) {
	g, err := generatorFor(s.Kind)
	if err != nil {
		return assign.Dist{}, err
	}
	return g.GenerateDist(s)
}

// Support reports an upper bound on the number of distinct values the init
// spec realizes, computed from the spec alone (no O(n) pre-pass). 0 means
// unknown (an unknown kind), which admission control charges as the full
// population.
func Support(s Spec) int64 {
	g, err := generatorFor(s.Kind)
	if err != nil {
		return 0
	}
	return g.Support(s)
}

// Check validates an init spec without materializing the state.
func Check(s Spec) error {
	g, err := generatorFor(s.Kind)
	if err != nil {
		return err
	}
	return g.Check(s)
}

// Normalize rewrites an init spec to its canonical form. Unknown kinds
// pass through unchanged (their error surfaces in Check/Build).
func Normalize(s Spec) Spec {
	g, err := generatorFor(s.Kind)
	if err != nil {
		return s
	}
	return g.Normalize(s)
}

// Size reports the population an init spec would materialize, without
// allocating it. 0 means unknown (an unknown kind).
func Size(s Spec) int64 {
	g, err := generatorFor(s.Kind)
	if err != nil {
		return 0
	}
	return g.Size(s)
}

// AxisApply patches one of the shared scalar init batch axes ("n", "m",
// "n_low") and reports whether param was one of them — the common half of
// every scalar kind's engine.AxisApplier, so the median, robust and
// gossip kinds cannot drift apart on it.
func AxisApply(s *Spec, param string, v float64) (bool, error) {
	var dst *int
	switch param {
	case "n":
		dst = &s.N
	case "m":
		dst = &s.M
	case "n_low":
		dst = &s.NLow
	default:
		return false, nil
	}
	iv, err := engine.IntAxis(param, v)
	if err != nil {
		return true, err
	}
	*dst = iv
	return true, nil
}

// FollowSeed keeps seed-consuming init kinds (uniform) in step with the
// run seed — the shared engine.SeedFollower body of the scalar kinds, so
// batch repetitions draw distinct initial states. The init draws from
// rng.NewInitStream of that seed, not from the run's own stream.
func FollowSeed(s *Spec, seed uint64) {
	if s.Kind == "uniform" {
		s.Seed = seed
	}
}

// Kinds returns the init kinds in sorted order, in a slice the caller owns.
func Kinds() []string { return slices.Clone(kinds) }

func needN(s Spec) error {
	if s.N <= 0 {
		return fmt.Errorf("consensus: init %q needs n > 0, got %d", s.Kind, s.N)
	}
	return nil
}

// twoValueShape resolves the twovalue defaults and validates the spec.
func twoValueShape(s Spec) (nLow int, low, high Value, err error) {
	if err := needN(s); err != nil {
		return 0, 0, 0, err
	}
	low, high = s.Low, s.High
	if low == 0 && high == 0 {
		low, high = 1, 2
	}
	if low >= high {
		return 0, 0, 0, fmt.Errorf("consensus: init twovalue needs low < high, got %d >= %d", low, high)
	}
	nLow = s.NLow
	if nLow == 0 {
		nLow = s.N / 2
	}
	if nLow < 0 || nLow > s.N {
		return 0, 0, 0, fmt.Errorf("consensus: init twovalue needs 0 <= n_low <= n, got %d", nLow)
	}
	return nLow, low, high, nil
}

func checkBlocks(s Spec) error {
	if len(s.Counts) == 0 {
		return fmt.Errorf("consensus: init blocks needs a non-empty counts vector")
	}
	var n int64
	for i, k := range s.Counts {
		if k < 0 {
			return fmt.Errorf("consensus: init blocks counts[%d] is negative", i)
		}
		n += k
	}
	if n == 0 {
		return fmt.Errorf("consensus: init blocks needs at least one ball")
	}
	return nil
}

// clampM resolves the m parameter the way uniform/evenblocks interpret it.
func clampM(s Spec) int {
	if s.M <= 0 || s.M > s.N {
		return s.N
	}
	return s.M
}

// uniformDist draws the uniform initial distribution at count level: one
// exact multinomial over the m equiprobable bins 1..m. O(m) memory, never
// O(n) — the distribution a per-ball assign.Uniform draw would realize, as
// one draw. (The realization differs from Generate at equal seed — the RNG
// is consumed differently — but the distribution is identical; see the
// init differential tests.)
func uniformDist(s Spec) (assign.Dist, error) {
	if err := needN(s); err != nil {
		return assign.Dist{}, err
	}
	m := clampM(s)
	g := rng.NewInitStream(s.Seed)
	probs := make([]float64, m)
	for i := range probs {
		probs[i] = 1
	}
	out := make([]int64, m)
	randx.Multinomial(g, int64(s.N), probs, out)
	var d assign.Dist
	for i, c := range out {
		if c == 0 {
			continue
		}
		d.Vals = append(d.Vals, Value(i+1))
		d.Counts = append(d.Counts, c)
	}
	return d, nil
}

// blocksDist assigns a count vector directly: value i+1 holds Counts[i]
// balls, empty bins dropped — already in increasing value order.
func blocksDist(counts []int64) assign.Dist {
	var d assign.Dist
	for i, c := range counts {
		if c == 0 {
			continue
		}
		d.Vals = append(d.Vals, Value(i+1))
		d.Counts = append(d.Counts, c)
	}
	return d
}

// supportBound counts the non-empty bins of a blocks count vector.
func supportBound(counts []int64) int64 {
	var k int64
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return k
}

// generators maps every init kind a spec can carry to its generator. It is
// a fixed table: a new kind is added here, in place, with every hook set.
var generators = map[string]Generator{
	"distinct": {
		Check:   needN,
		Size:    func(s Spec) int64 { return int64(s.N) },
		Support: func(s Spec) int64 { return int64(s.N) },
		Normalize: func(s Spec) Spec {
			return Spec{Kind: s.Kind, N: s.N}
		},
		Generate: func(s Spec) ([]Value, error) {
			if err := needN(s); err != nil {
				return nil, err
			}
			return assign.AllDistinct(s.N), nil
		},
		GenerateDist: func(s Spec) (assign.Dist, error) {
			if err := needN(s); err != nil {
				return assign.Dist{}, err
			}
			d := assign.Dist{Vals: make([]Value, s.N), Counts: make([]int64, s.N)}
			for i := range d.Vals {
				d.Vals[i] = Value(i + 1)
				d.Counts[i] = 1
			}
			return d, nil
		},
	},
	"uniform": {
		Check: needN,
		Size:  func(s Spec) int64 { return int64(s.N) },
		Support: func(s Spec) int64 {
			if m := int64(clampM(s)); m < int64(s.N) {
				return m
			}
			return int64(s.N)
		},
		Normalize: func(s Spec) Spec {
			return Spec{Kind: s.Kind, N: s.N, M: clampM(s), Seed: s.Seed}
		},
		Generate: func(s Spec) ([]Value, error) {
			if err := needN(s); err != nil {
				return nil, err
			}
			return assign.Uniform(s.N, clampM(s), rng.NewInitStream(s.Seed)), nil
		},
		GenerateDist: uniformDist,
	},
	"twovalue": {
		Size:    func(s Spec) int64 { return int64(s.N) },
		Support: func(s Spec) int64 { return 2 },
		Check: func(s Spec) error {
			_, _, _, err := twoValueShape(s)
			return err
		},
		Normalize: func(s Spec) Spec {
			nLow, low, high, err := twoValueShape(s)
			if err != nil {
				return s // invalid specs fail validation, not hashing
			}
			return Spec{Kind: s.Kind, N: s.N, NLow: nLow, Low: low, High: high}
		},
		Generate: func(s Spec) ([]Value, error) {
			nLow, low, high, err := twoValueShape(s)
			if err != nil {
				return nil, err
			}
			return assign.TwoValue(s.N, nLow, low, high), nil
		},
		GenerateDist: func(s Spec) (assign.Dist, error) {
			nLow, low, high, err := twoValueShape(s)
			if err != nil {
				return assign.Dist{}, err
			}
			var d assign.Dist
			if nLow > 0 {
				d.Vals = append(d.Vals, low)
				d.Counts = append(d.Counts, int64(nLow))
			}
			if nLow < s.N {
				d.Vals = append(d.Vals, high)
				d.Counts = append(d.Counts, int64(s.N-nLow))
			}
			return d, nil
		},
	},
	"blocks": {
		Check: checkBlocks,
		Size: func(s Spec) int64 {
			var n int64
			for _, k := range s.Counts {
				n += k
			}
			return n
		},
		Support: func(s Spec) int64 { return supportBound(s.Counts) },
		Normalize: func(s Spec) Spec {
			return Spec{Kind: s.Kind, Counts: s.Counts}
		},
		Generate: func(s Spec) ([]Value, error) {
			if err := checkBlocks(s); err != nil {
				return nil, err
			}
			return assign.Blocks(s.Counts), nil
		},
		GenerateDist: func(s Spec) (assign.Dist, error) {
			if err := checkBlocks(s); err != nil {
				return assign.Dist{}, err
			}
			return blocksDist(s.Counts), nil
		},
	},
	"evenblocks": {
		Check: needN,
		Size:  func(s Spec) int64 { return int64(s.N) },
		Support: func(s Spec) int64 {
			return int64(clampM(s))
		},
		Normalize: func(s Spec) Spec {
			return Spec{Kind: s.Kind, N: s.N, M: clampM(s)}
		},
		Generate: func(s Spec) ([]Value, error) {
			if err := needN(s); err != nil {
				return nil, err
			}
			return assign.EvenBlocks(s.N, clampM(s)), nil
		},
		GenerateDist: func(s Spec) (assign.Dist, error) {
			if err := needN(s); err != nil {
				return assign.Dist{}, err
			}
			n, m := s.N, clampM(s)
			counts := make([]int64, m)
			base := int64(n / m)
			extra := n % m
			for i := range counts {
				counts[i] = base
				if i < extra {
					counts[i]++
				}
			}
			return blocksDist(counts), nil
		},
	},
}

// kinds is generators' keys, sorted once.
var kinds = slices.Sorted(maps.Keys(generators))
