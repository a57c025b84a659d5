// Package multidim explores the paper's stated future work (Section 6):
// the behaviour of the median dynamics on higher-dimensional values. "It
// would be very interesting though probably very challenging to prove a
// time bound of O(log n) also for higher dimensions."
//
// The natural candidate generalisation — the one the one-dimensional rule
// specialises from — is the coordinate-wise median: each process samples
// two uniform peers and, independently in every coordinate, adopts the
// median of the three coordinate values. This package implements that rule
// with its own per-process engine and the instrumentation needed to
// measure two questions empirically:
//
//  1. Speed: does convergence stay O(log n) as the dimension d grows?
//     (Measured: yes — rounds grow additively, roughly one extra round
//     per doubling of d, because the slowest of d coupled one-dimensional
//     processes governs, and d log-time processes have a log d spread.)
//  2. Validity: the coordinate-wise median of three points is generally
//     *none of the three points*, so the d-dimensional rule can stabilize
//     on a value no process initially held — validity degrades with d.
//     (Measured: the consensus point's coordinates are always initial
//     coordinate values, but the tuple is fabricated for d ≥ 2 with
//     probability growing in d. Lemma 17's monotone-coupling argument
//     survives per coordinate, which is exactly why each coordinate still
//     converges; it is only the tuple-level validity that breaks.)
//
// The package is self-contained rather than an instance of internal/core
// because Value there is a scalar by design (the paper's protocol) and
// widening it to slices would tax the scalar hot path every engine shares.
package multidim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rng"
)

// Point is a d-dimensional process value. All points in one run must have
// equal dimension.
type Point []int64

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q agree in every coordinate.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as a tuple.
func (p Point) String() string { return fmt.Sprint([]int64(p)) }

// CoordMedian writes the coordinate-wise median of (own, a, b) into dst.
// dst must have the common dimension; own/a/b are not modified. dst may
// alias own.
//
//consensus:hotpath
func CoordMedian(dst, own, a, b Point) {
	for i := range dst {
		dst[i] = median3(own[i], a[i], b[i])
	}
}

func median3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// Adversary is the T-bounded adversary contract for d-dimensional states:
// it may rewrite up to its budget of points per round, restricted to the
// initial point set (the signed-values assumption carries over: a corrupted
// process must present some initially-proposed tuple).
type Adversary interface {
	// Budget is the per-round corruption allowance.
	Budget(n int) int
	// Corrupt may overwrite up to Budget(len(state)) entries of state
	// with clones of points from allowed (the distinct initial tuples, in
	// lexicographic order — the set CountAdversary sees too).
	Corrupt(round int, state []Point, allowed []Point, g *rng.Xoshiro256)
}

// Options configures an Engine.
type Options struct {
	// MaxRounds caps the run; 0 means the package default (1 << 16).
	MaxRounds int
	// Observer, when non-nil, receives the state after every round. The
	// slice and its points are reused; observers must copy what they keep.
	Observer func(round int, state []Point)
}

// DefaultMaxRounds is the round cap when Options.MaxRounds is zero.
const DefaultMaxRounds = 1 << 16

// Result reports a run's outcome.
type Result struct {
	// Rounds executed.
	Rounds int
	// Consensus reports whether all processes ended on one point.
	Consensus bool
	// Winner is the final plurality point.
	Winner Point
	// WinnerCount is the number of processes holding Winner.
	WinnerCount int
	// TupleValid reports whether Winner equals one of the initial points.
	TupleValid bool
	// CoordValid reports whether every coordinate of Winner appeared as
	// that coordinate of some initial point (always true for the
	// coordinate-wise median absent adversarial new values).
	CoordValid bool
}

// Engine runs the coordinate-wise median dynamics on n d-dimensional
// points with synchronous (double-buffered) rounds, matching the paper's
// model in every respect except the value domain.
type Engine struct {
	state, next []Point
	initial     []Point // distinct initial tuples: validity + adversary domain
	dim         int
	adv         Adversary
	g           *rng.Xoshiro256
	opts        Options
	round       int
}

// NewEngine builds an engine over a copy of the given points.
func NewEngine(points []Point, adv Adversary, seed uint64, opts Options) *Engine {
	if len(points) == 0 {
		panic("multidim: empty population")
	}
	dim := len(points[0])
	if dim == 0 {
		panic("multidim: zero-dimensional points")
	}
	state := make([]Point, len(points))
	next := make([]Point, len(points))
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("multidim: point %d has dimension %d, want %d", i, len(p), dim))
		}
		state[i] = p.Clone()
		next[i] = make(Point, dim)
	}
	// An adversary draws from the initial tuple set, not weighted by how
	// many processes held each tuple.
	initial, _ := distOf(points, dim)
	return &Engine{
		state:   state,
		next:    next,
		initial: initial,
		dim:     dim,
		adv:     adv,
		g:       rng.NewXoshiro256(seed),
		opts:    opts,
	}
}

// Dim returns the common dimension.
func (e *Engine) Dim() int { return e.dim }

// Round returns the number of executed rounds.
func (e *Engine) Round() int { return e.round }

// State returns the live state; callers must not modify it.
func (e *Engine) State() []Point { return e.state }

// Step executes one synchronous round: adversary first (the Section 1.1
// timing), then every process applies the coordinate-wise median of itself
// and two uniform samples of the *pre-round* state.
func (e *Engine) Step() {
	if e.adv != nil {
		e.adv.Corrupt(e.round, e.state, e.initial, e.g)
	}
	n := len(e.state)
	for i := range e.state {
		a := e.state[e.g.Intn(n)]
		b := e.state[e.g.Intn(n)]
		CoordMedian(e.next[i], e.state[i], a, b)
	}
	e.state, e.next = e.next, e.state
	e.round++
}

// Run steps until consensus or the round cap and returns the Result.
func (e *Engine) Run() Result {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	for e.round < maxRounds {
		e.Step()
		if e.opts.Observer != nil {
			e.opts.Observer(e.round, e.state)
		}
		if e.adv == nil && e.isConsensus() {
			break
		}
	}
	return e.result()
}

func (e *Engine) isConsensus() bool {
	first := e.state[0]
	for _, p := range e.state[1:] {
		if !p.Equal(first) {
			return false
		}
	}
	return true
}

func (e *Engine) result() Result {
	winner, count := plurality(e.state)
	return Result{
		Rounds:      e.round,
		Consensus:   count == len(e.state),
		Winner:      winner.Clone(),
		WinnerCount: count,
		TupleValid:  containsPoint(e.initial, winner),
		CoordValid:  coordsValid(e.initial, winner),
	}
}

// plurality returns the most frequent point and its count.
func plurality(state []Point) (Point, int) {
	w, c, _ := Plurality(state)
	return w, c
}

// appendPointKey appends p's raw coordinate bytes to buf — the map key
// both Plurality and the count engine bucket tuples under. The encoding is
// injective for a fixed dimension, which is all a hash key needs.
//
//consensus:hotpath
func appendPointKey(buf []byte, p Point) []byte {
	for _, v := range p {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// Plurality returns the most frequent point, its count and the number of
// distinct points in state. Ties resolve to the point whose holder appears
// first, so the result is deterministic in state order — the property the
// service layer's cache-determinism guarantee rests on. The returned
// winner aliases a point in state; callers that outlive the round must
// Clone it. Points are keyed by their raw coordinate bytes (one lookup per
// process, one small allocation per distinct point), cheap enough to call
// once per observed round.
func Plurality(state []Point) (winner Point, count, support int) {
	if len(state) == 0 {
		return nil, 0, 0
	}
	type entry struct {
		rep   Point
		count int
	}
	entries := make(map[string]*entry, len(state))
	buf := make([]byte, 0, 8*len(state[0]))
	best := -1
	for _, p := range state {
		buf = appendPointKey(buf[:0], p)
		// The string(buf) lookup does not allocate; only a first-seen
		// point materializes a durable key.
		e := entries[string(buf)]
		if e == nil {
			e = &entry{rep: p}
			entries[string(buf)] = e
		}
		e.count++
		if e.count > best {
			best = e.count
			winner = e.rep
		}
	}
	return winner, best, len(entries)
}

func containsPoint(set []Point, p Point) bool {
	for _, q := range set {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

// coordsValid reports whether each coordinate of p equals that coordinate
// of some point in set.
func coordsValid(set []Point, p Point) bool {
	for i, v := range p {
		found := false
		for _, q := range set {
			if q[i] == v {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// RandomPoints builds n points with each coordinate drawn uniformly from
// [1, m] — the average-case model of Section 5 lifted to d dimensions.
// Deterministic in seed.
func RandomPoints(n, d, m int, seed uint64) []Point {
	g := rng.NewXoshiro256(seed)
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		for j := range p {
			p[j] = int64(g.Intn(m)) + 1
		}
		pts[i] = p
	}
	return pts
}

// DistinctPoints builds the d-dimensional analogue of the all-distinct
// worst case: point i is (i+1, i+1, ..., i+1) rotated by coordinate so
// that every coordinate still carries n distinct values but tuples are
// maximally spread: coordinate j of point i is ((i+j) mod n) + 1.
func DistinctPoints(n, d int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		for j := range p {
			p[j] = int64((i+j)%n) + 1
		}
		pts[i] = p
	}
	return pts
}

// NoiseAdversary rewrites up to its budget of uniformly chosen processes
// with uniformly chosen initial points — the d-dimensional RandomNoise.
type NoiseAdversary struct {
	// T is the fixed per-round budget.
	T int
}

// Budget implements Adversary.
func (a *NoiseAdversary) Budget(n int) int { return a.T }

// Corrupt implements Adversary.
func (a *NoiseAdversary) Corrupt(round int, state []Point, allowed []Point, g *rng.Xoshiro256) {
	for k := 0; k < a.T; k++ {
		i := g.Intn(len(state))
		src := allowed[g.Intn(len(allowed))]
		copy(state[i], src)
	}
}
