package multidim

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/randx"
	"repro/internal/rng"
)

// This file holds the package's name tables, fixed like those of rules,
// adversary and internal/initspec: serializable names for initial point
// sets and adversary strategies, so the service layer can reconstruct a
// multidim run from a JSON spec without hard-coding every family.

// InitSpec is the serializable description of an initial point set: a
// generator kind plus the union of the parameters the built-in generators
// take. Unused fields are zero and omitted from JSON.
type InitSpec struct {
	// Kind selects the generator (see InitKinds).
	Kind string `json:"kind"`
	// N is the population size.
	N int `json:"n,omitempty"`
	// D is the point dimension (0 means 1).
	D int `json:"d,omitempty"`
	// M is the per-coordinate value range for random (0 means n).
	M int `json:"m,omitempty"`
	// Seed drives randomized generators (random).
	Seed uint64 `json:"seed,omitempty"`
}

// InitGenerator materializes an initial point set from its spec; every
// hook is required. Generate builds the per-process point slice. Check,
// Normalize and Size mirror the scalar initspec.Generator: validation
// without the O(n·d) allocation, canonical spec rewriting for stable
// hashing, and population reporting for admission control.
//
// GenerateCounts builds the initial state directly at the distribution
// level — sorted distinct tuples with positive counts — so the count engine
// starts without ever materializing the O(n·d) point slice. Support reports
// an upper bound on the number of distinct tuples the spec realizes,
// computable from the spec alone; engine auto-selection uses it in place of
// a materialized support count.
type InitGenerator struct {
	Generate       func(s InitSpec) ([]Point, error)
	GenerateCounts func(s InitSpec) ([]Point, []int64, error)
	Check          func(s InitSpec) error
	Normalize      func(s InitSpec) InitSpec
	Size           func(s InitSpec) int64
	Support        func(s InitSpec) int64
}

func initFor(kind string) (InitGenerator, error) {
	g, ok := initGenerators[kind]
	if !ok {
		return InitGenerator{}, fmt.Errorf("multidim: unknown init kind %q (known: %v)", kind, initKinds)
	}
	return g, nil
}

// BuildInit materializes the point set described by s.
func BuildInit(s InitSpec) ([]Point, error) {
	g, err := initFor(s.Kind)
	if err != nil {
		return nil, err
	}
	return g.Generate(s)
}

// BuildInitCounts materializes the distribution described by s — sorted
// distinct tuples and their positive counts — without building the
// per-process point slice.
func BuildInitCounts(s InitSpec) ([]Point, []int64, error) {
	g, err := initFor(s.Kind)
	if err != nil {
		return nil, nil, err
	}
	return g.GenerateCounts(s)
}

// InitSupport reports an upper bound on the number of distinct tuples the
// init spec realizes, computed from the spec alone (no O(n·d) pre-pass).
// 0 means unknown (an unknown kind), which engine auto-selection treats as
// "too large for the count engine".
func InitSupport(s InitSpec) int64 {
	g, err := initFor(s.Kind)
	if err != nil {
		return 0
	}
	return g.Support(s)
}

// CheckInit validates an init spec without materializing the points.
func CheckInit(s InitSpec) error {
	g, err := initFor(s.Kind)
	if err != nil {
		return err
	}
	return g.Check(s)
}

// NormalizeInit rewrites an init spec to its canonical form. Unknown kinds
// pass through unchanged (their error surfaces in CheckInit/BuildInit).
func NormalizeInit(s InitSpec) InitSpec {
	g, err := initFor(s.Kind)
	if err != nil {
		return s
	}
	return g.Normalize(s)
}

// InitSize reports the population an init spec would materialize, without
// allocating it. 0 means unknown (an unknown kind).
func InitSize(s InitSpec) int64 {
	g, err := initFor(s.Kind)
	if err != nil {
		return 0
	}
	return g.Size(s)
}

// InitKinds returns the init kinds in sorted order, in a slice the caller
// owns.
func InitKinds() []string { return slices.Clone(initKinds) }

func checkShape(s InitSpec) error {
	if s.N <= 0 {
		return fmt.Errorf("multidim: init %q needs n > 0, got %d", s.Kind, s.N)
	}
	if s.D < 0 {
		return fmt.Errorf("multidim: init %q needs d >= 0, got %d", s.Kind, s.D)
	}
	return nil
}

// dimOf resolves the dimension default (0 means 1).
func dimOf(s InitSpec) int {
	if s.D <= 0 {
		return 1
	}
	return s.D
}

// clampM resolves the random generator's value range (0 or > n means n).
func clampM(s InitSpec) int {
	if s.M <= 0 || s.M > s.N {
		return s.N
	}
	return s.M
}

// maxCountCells bounds the dense m^d cell array the count-native random
// generator draws its one multinomial over. Beyond it the distinct-tuple
// support is too large for the count representation anyway, so the builder
// falls back to materialize-and-bucket.
const maxCountCells = 1 << 22

// randomCells returns the number of cells m^d of the random generator's
// tuple domain, or 0 when it exceeds maxCountCells (including overflow).
func randomCells(d, m int) int64 {
	cells := int64(1)
	for j := 0; j < d; j++ {
		cells *= int64(m)
		if cells > maxCountCells {
			return 0
		}
	}
	return cells
}

// randomSupport is the spec-level support bound of the random generator:
// at most n distinct tuples, and at most m^d.
func randomSupport(s InitSpec) int64 {
	n := int64(s.N)
	if cells := randomCells(dimOf(s), clampM(s)); cells > 0 && cells < n {
		return cells
	}
	return n
}

// randomCounts draws the random initial distribution at count level: one
// exact multinomial over the m^d uniform cells, then a sparse enumeration
// of the non-empty cells in lexicographic order. O(m^d·d) memory, never
// O(n·d) — the distribution a bucketed RandomPoints draw would realize,
// as one draw. (The realization differs from RandomPoints at equal seed —
// the RNG is consumed differently — but the distribution is identical;
// see the init differential tests.)
func randomCounts(s InitSpec) ([]Point, []int64, error) {
	if err := checkShape(s); err != nil {
		return nil, nil, err
	}
	d, m := dimOf(s), clampM(s)
	cells := randomCells(d, m)
	if cells == 0 {
		// Domain too large for the dense draw: bucket the point set.
		tuples, counts := distOf(RandomPoints(s.N, d, m, s.Seed), d)
		return tuples, counts, nil
	}
	g := rng.NewXoshiro256(s.Seed)
	probs := make([]float64, cells)
	for i := range probs {
		probs[i] = 1
	}
	out := make([]int64, cells)
	randx.Multinomial(g, int64(s.N), probs, out)
	var tuples []Point
	var counts []int64
	for idx, c := range out {
		if c == 0 {
			continue
		}
		// Decode the cell index most-significant coordinate first, so
		// enumeration order is lexicographic tuple order.
		p := make(Point, d)
		rem := int64(idx)
		for j := d - 1; j >= 0; j-- {
			p[j] = rem%int64(m) + 1
			rem /= int64(m)
		}
		tuples = append(tuples, p)
		counts = append(counts, c)
	}
	return tuples, counts, nil
}

// distinctCounts assigns the all-distinct worst case directly: every
// DistinctPoints tuple with count 1, already in lexicographic order (the
// first coordinate of point i is i+1), skipping the bucketing map entirely.
func distinctCounts(s InitSpec) ([]Point, []int64, error) {
	if err := checkShape(s); err != nil {
		return nil, nil, err
	}
	tuples := DistinctPoints(s.N, dimOf(s))
	counts := make([]int64, len(tuples))
	for i := range counts {
		counts[i] = 1
	}
	return tuples, counts, nil
}

// initGenerators maps every init kind a multidim spec can carry to its
// generator. It is a fixed table: a new kind is added here, in place, with
// every hook set.
var initGenerators = map[string]InitGenerator{
	"random": {
		Check:   checkShape,
		Size:    func(s InitSpec) int64 { return int64(s.N) },
		Support: randomSupport,
		Normalize: func(s InitSpec) InitSpec {
			return InitSpec{Kind: s.Kind, N: s.N, D: dimOf(s), M: clampM(s), Seed: s.Seed}
		},
		Generate: func(s InitSpec) ([]Point, error) {
			if err := checkShape(s); err != nil {
				return nil, err
			}
			return RandomPoints(s.N, dimOf(s), clampM(s), s.Seed), nil
		},
		GenerateCounts: randomCounts,
	},
	"distinct": {
		Check:   checkShape,
		Size:    func(s InitSpec) int64 { return int64(s.N) },
		Support: func(s InitSpec) int64 { return int64(s.N) },
		Normalize: func(s InitSpec) InitSpec {
			return InitSpec{Kind: s.Kind, N: s.N, D: dimOf(s)}
		},
		Generate: func(s InitSpec) ([]Point, error) {
			if err := checkShape(s); err != nil {
				return nil, err
			}
			return DistinctPoints(s.N, dimOf(s)), nil
		},
		GenerateCounts: distinctCounts,
	},
}

// initKinds is initGenerators' keys, sorted once.
var initKinds = slices.Sorted(maps.Keys(initGenerators))

// Params carries the numeric parameters of adversary strategies in a
// JSON-friendly form. Constructors reject unknown keys.
type Params map[string]float64

// AdvConstructor builds a fresh adversary from its parameters.
type AdvConstructor func(p Params) (Adversary, error)

// NewAdversary constructs the named adversary with the given parameters.
func NewAdversary(name string, p Params) (Adversary, error) {
	c, ok := adversaries[name]
	if !ok {
		return nil, fmt.Errorf("multidim: unknown adversary %q (known: %v)", name, adversaryNames)
	}
	return c(p)
}

// AdversaryNames returns the strategy names in sorted order, in a slice the
// caller owns.
func AdversaryNames() []string { return slices.Clone(adversaryNames) }

// adversaries maps every strategy name a multidim spec can carry to its
// constructor. It is a fixed table: a new strategy is added here, in place.
var adversaries = map[string]AdvConstructor{
	"noise": func(p Params) (Adversary, error) {
		// The smallest unknown key is reported, before any value is
		// checked, so one spec always gets one error text.
		first, found := "", false
		for key := range p {
			if key != "t" && (!found || key < first) {
				first, found = key, true
			}
		}
		if found {
			return nil, fmt.Errorf("multidim: noise knows only parameter \"t\", got %q", first)
		}
		t := 1
		if v, ok := p["t"]; ok {
			if v != float64(int(v)) || int(v) < 0 {
				return nil, fmt.Errorf("multidim: noise parameter t must be a non-negative integer, got %v", v)
			}
			t = int(v)
		}
		return &NoiseAdversary{T: t}, nil
	},
}

// adversaryNames is adversaries' keys, sorted once.
var adversaryNames = slices.Sorted(maps.Keys(adversaries))
