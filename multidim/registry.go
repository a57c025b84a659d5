package multidim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/randx"
	"repro/internal/rng"
)

// This file is the package's registration surface, mirroring the
// rules/adversary/consensus pattern: serializable names for initial point
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

// InitGenerator materializes an initial point set from its spec. Check,
// Normalize and Size mirror the scalar initspec.Generator: validation
// without the O(n·d) allocation, canonical spec rewriting for stable
// hashing, and population reporting for admission control.
//
// GenerateCounts, when non-nil, builds the initial state directly at the
// distribution level — sorted distinct tuples with positive counts — so the
// count engine starts without ever materializing the O(n·d) point slice.
// Support, when non-nil, reports an upper bound on the number of distinct
// tuples the spec realizes, computable from the spec alone; engine
// auto-selection uses it in place of a materialized support count.
type InitGenerator struct {
	Generate       func(s InitSpec) ([]Point, error)
	GenerateCounts func(s InitSpec) ([]Point, []int64, error)
	Check          func(s InitSpec) error
	Normalize      func(s InitSpec) InitSpec
	Size           func(s InitSpec) int64
	Support        func(s InitSpec) int64
}

var (
	initMu       sync.RWMutex
	initRegistry = map[string]InitGenerator{}
)

// RegisterInit adds a named point-set generator, panicking on duplicates.
func RegisterInit(kind string, g InitGenerator) {
	if kind == "" || g.Generate == nil {
		panic("multidim: RegisterInit with empty kind or nil generator")
	}
	initMu.Lock()
	defer initMu.Unlock()
	if _, dup := initRegistry[kind]; dup {
		panic(fmt.Sprintf("multidim: duplicate init registration of %q", kind))
	}
	initRegistry[kind] = g
}

func initFor(kind string) (InitGenerator, error) {
	initMu.RLock()
	g, ok := initRegistry[kind]
	initMu.RUnlock()
	if !ok {
		return InitGenerator{}, fmt.Errorf("multidim: unknown init kind %q (known: %v)", kind, InitKinds())
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
// per-process point slice when the generator is count-native. Generators
// without a GenerateCounts hook fall back to materialize-and-bucket.
func BuildInitCounts(s InitSpec) ([]Point, []int64, error) {
	g, err := initFor(s.Kind)
	if err != nil {
		return nil, nil, err
	}
	if g.GenerateCounts != nil {
		return g.GenerateCounts(s)
	}
	pts, err := g.Generate(s)
	if err != nil {
		return nil, nil, err
	}
	if len(pts) == 0 {
		return nil, nil, fmt.Errorf("multidim: init %q generated an empty population", s.Kind)
	}
	tuples, counts := distOf(pts, len(pts[0]))
	return tuples, counts, nil
}

// InitSupport reports an upper bound on the number of distinct tuples the
// init spec realizes, computed from the spec alone (no O(n·d) pre-pass).
// 0 means unknown (unregistered kind or no Support hook), which engine
// auto-selection treats as "too large for the count engine".
func InitSupport(s InitSpec) int64 {
	g, err := initFor(s.Kind)
	if err != nil || g.Support == nil {
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
	if g.Check != nil {
		return g.Check(s)
	}
	_, err = g.Generate(s)
	return err
}

// NormalizeInit rewrites an init spec to its canonical form. Unknown kinds
// pass through unchanged (their error surfaces in CheckInit/BuildInit).
func NormalizeInit(s InitSpec) InitSpec {
	g, err := initFor(s.Kind)
	if err != nil || g.Normalize == nil {
		return s
	}
	return g.Normalize(s)
}

// InitSize reports the population an init spec would materialize, without
// allocating it. 0 means unknown.
func InitSize(s InitSpec) int64 {
	g, err := initFor(s.Kind)
	if err != nil || g.Size == nil {
		return 0
	}
	return g.Size(s)
}

// InitKinds returns the registered init kinds in sorted order.
func InitKinds() []string {
	initMu.RLock()
	defer initMu.RUnlock()
	out := make([]string, 0, len(initRegistry))
	for kind := range initRegistry {
		out = append(out, kind)
	}
	sort.Strings(out)
	return out
}

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

func init() {
	RegisterInit("random", InitGenerator{
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
	})
	RegisterInit("distinct", InitGenerator{
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
	})
}

// Params carries the numeric parameters of adversary strategies in a
// JSON-friendly form. Constructors reject unknown keys.
type Params map[string]float64

// AdvConstructor builds a fresh adversary from its parameters.
type AdvConstructor func(p Params) (Adversary, error)

var (
	advMu       sync.RWMutex
	advRegistry = map[string]AdvConstructor{}
)

// RegisterAdversary adds a named strategy constructor, panicking on
// duplicates.
func RegisterAdversary(name string, c AdvConstructor) {
	if name == "" || c == nil {
		panic("multidim: RegisterAdversary with empty name or nil constructor")
	}
	advMu.Lock()
	defer advMu.Unlock()
	if _, dup := advRegistry[name]; dup {
		panic(fmt.Sprintf("multidim: duplicate adversary registration of %q", name))
	}
	advRegistry[name] = c
}

// NewAdversary constructs the named adversary with the given parameters.
func NewAdversary(name string, p Params) (Adversary, error) {
	advMu.RLock()
	c, ok := advRegistry[name]
	advMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("multidim: unknown adversary %q (known: %v)", name, AdversaryNames())
	}
	return c(p)
}

// AdversaryNames returns the registered strategy names in sorted order.
func AdversaryNames() []string {
	advMu.RLock()
	defer advMu.RUnlock()
	out := make([]string, 0, len(advRegistry))
	for name := range advRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterAdversary("noise", func(p Params) (Adversary, error) {
		t := 1
		for key, v := range p {
			if key != "t" {
				return nil, fmt.Errorf("multidim: noise knows only parameter \"t\", got %q", key)
			}
			if v != float64(int(v)) || int(v) < 0 {
				return nil, fmt.Errorf("multidim: noise parameter t must be a non-negative integer, got %v", v)
			}
			t = int(v)
		}
		return &NoiseAdversary{T: t}, nil
	})
}
