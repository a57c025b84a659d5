package multidim

import (
	"fmt"
	"sort"

	"repro/internal/randx"
	"repro/internal/rng"
)

// This file implements the count-level engine for the coordinate-wise
// median dynamics: the d-dimensional analogue of the scalar
// consensus.EngineCount. A process's update depends only on its own tuple
// and the tuple *distribution* (processes are exchangeable), so the
// population can be represented as counts over distinct tuples — O(k·d)
// memory for k distinct tuples instead of the per-process engine's O(n·d).
// For small value ranges (k ≪ n) this unlocks populations the per-process
// engine cannot hold, which is exactly the regime the paper's Section 5
// average-case model lives in.
//
// Two exact round updates share one trajectory distribution with the
// per-process engine:
//
//   - Transition rows (randx.Rows): for each live tuple v the engine sums
//     the probability of every ordered peer pair (a, b) into the row
//     P(v→CoordMedian(v, a, b)) and moves v's balls with one exact
//     multinomial over that row. This is distributed exactly like
//     per-ball sampling but costs O(k³) median calls and k multinomials,
//     independent of n. This is what makes n = 10⁹ rounds run in
//     microseconds.
//   - Per-ball sampling: every ball draws its two peers independently and
//     uniformly from the pre-round distribution (with replacement) via an
//     alias table, two draws per ball per round, just as Engine.Step draws
//     two uniform indices. O(n) time per round, for supports too large for
//     the rows.
//
// The engine picks the cheaper mode each round from (n, live support) via
// randx.RowsCheaper — a deterministic function of the trajectory, so runs
// stay reproducible — and both modes accumulate into engine-owned reusable
// workspaces (slot store, transition rows, weights, alias table), so a
// steady-state round performs zero heap allocations (see
// TestCountEngineStepAllocs).

// CountAdversary is the count-level T-bounded adversary contract: the
// d-dimensional analogue of model.CountAdversary. CorruptCounts may move up
// to Budget(n) balls between bins of the (tuples, counts) distribution,
// restricted to tuples from allowed (the distinct initial tuples, per the
// paper's signed-values assumption). Implementations must treat the passed
// tuples as read-only — corruption is expressed by adjusting counts and
// appending (tuple, count) pairs for bins not yet present — and must
// preserve the total ball count. The returned slices may be the inputs,
// extended.
type CountAdversary interface {
	// Budget is the per-round corruption allowance.
	Budget(n int) int
	// CorruptCounts rewrites the distribution under the budget.
	CorruptCounts(round int, tuples []Point, counts []int64, allowed []Point, g *rng.Xoshiro256) ([]Point, []int64)
}

// CountOptions configures a CountEngine.
type CountOptions struct {
	// MaxRounds caps the run; 0 means DefaultMaxRounds.
	MaxRounds int
	// Observer, when non-nil, receives the tuple distribution after every
	// round: the distinct tuples in lexicographic order and their counts.
	// The slices and tuples are only valid during the call (the engine is
	// free to reuse them); observers must copy what they keep.
	Observer func(round int, tuples []Point, counts []int64)
}

// CountEngine runs the coordinate-wise median dynamics on the tuple
// distribution. Adversaries run at count level through the CountAdversary
// contract (the per-process Adversary contract rewrites individual
// processes, which the count representation cannot express).
//
// Internally every distinct tuple ever seen is interned into a slot; the
// live distribution is the sorted slice of slots with a positive count.
// Slots, counts, sampling tables and observer views are all engine-owned
// reusable workspaces: once the reachable tuple set has been seen, a round
// allocates nothing.
type CountEngine struct {
	n       int64
	dim     int
	adv     CountAdversary
	g       *rng.Xoshiro256
	opts    CountOptions
	round   int
	initial []Point // distinct initial tuples: validity + adversary domain

	// Slot store: every distinct tuple ever seen, interned once.
	index map[string]int32 // point key → slot
	reps  []Point          // slot → representative tuple
	cur   []int64          // slot → live count (zero for dead slots)
	nxt   []int64          // slot → next-round accumulator (all zero between rounds)
	live  []int32          // slots with cur > 0, sorted by tuple order
	tch   []int32          // slots with nxt > 0, in first-touch order

	// Round workspaces.
	rows    randx.Rows
	weights []float64 // parallel to live
	alias   randx.Alias
	scratch Point
	keyBuf  []byte
	sorter  slotSorter

	// Flattened live views (observer, adversary, Dist).
	viewTuples []Point
	viewCounts []int64
}

// slotSorter sorts a slot slice by the represented tuple order.
type slotSorter struct {
	slots []int32
	reps  []Point
}

func (s *slotSorter) Len() int { return len(s.slots) }
func (s *slotSorter) Less(i, j int) bool {
	return pointLess(s.reps[s.slots[i]], s.reps[s.slots[j]])
}
func (s *slotSorter) Swap(i, j int) { s.slots[i], s.slots[j] = s.slots[j], s.slots[i] }

// NewCountEngine builds a count-level engine over the distribution of the
// given points (the per-process population the spec describes; the engine
// only stores its distinct tuples). The adversary may be nil.
func NewCountEngine(points []Point, adv CountAdversary, seed uint64, opts CountOptions) *CountEngine {
	if len(points) == 0 {
		panic("multidim: empty population")
	}
	dim := len(points[0])
	if dim == 0 {
		panic("multidim: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("multidim: point %d has dimension %d, want %d", i, len(p), dim))
		}
	}
	tuples, counts := distOf(points, dim)
	return NewCountEngineDist(tuples, counts, adv, seed, opts)
}

// NewCountEngineDist builds the engine directly over a (tuples, counts)
// distribution — the distribution-level entry point the count-native init
// builders feed, never materializing a per-process point slice. Counts must
// be positive and tuples distinct with a common dimension; any order is
// accepted (the engine sorts internally). The tuples are cloned, so the
// caller keeps ownership of its slices.
func NewCountEngineDist(tuples []Point, counts []int64, adv CountAdversary, seed uint64, opts CountOptions) *CountEngine {
	if len(tuples) == 0 {
		panic("multidim: empty population")
	}
	if len(tuples) != len(counts) {
		panic("multidim: tuples/counts length mismatch")
	}
	dim := len(tuples[0])
	if dim == 0 {
		panic("multidim: zero-dimensional points")
	}
	e := &CountEngine{
		dim:     dim,
		adv:     adv,
		g:       rng.NewXoshiro256(seed),
		opts:    opts,
		index:   make(map[string]int32, len(tuples)),
		scratch: make(Point, dim),
		keyBuf:  make([]byte, 0, 8*dim),
	}
	for i, p := range tuples {
		if len(p) != dim {
			panic(fmt.Sprintf("multidim: tuple %d has dimension %d, want %d", i, len(p), dim))
		}
		c := counts[i]
		if c <= 0 {
			panic(fmt.Sprintf("multidim: tuple %d has non-positive count %d", i, c))
		}
		slot := e.intern(p)
		if e.cur[slot] != 0 {
			panic(fmt.Sprintf("multidim: duplicate tuple %v in distribution", p))
		}
		e.cur[slot] = c
		e.live = append(e.live, slot)
		e.n += c
	}
	e.sortLive()
	e.initial = make([]Point, len(e.live))
	for i, s := range e.live {
		e.initial[i] = e.reps[s]
	}
	return e
}

// intern returns the slot of p, creating one (with a cloned representative)
// on first sight. Steady-state calls are pure map lookups: the string(buf)
// key conversion does not allocate.
//
//consensus:hotpath
func (e *CountEngine) intern(p Point) int32 {
	e.keyBuf = appendPointKey(e.keyBuf[:0], p)
	if slot, ok := e.index[string(e.keyBuf)]; ok {
		return slot
	}
	slot := int32(len(e.reps))
	e.index[string(e.keyBuf)] = slot
	e.reps = append(e.reps, p.Clone())
	e.cur = append(e.cur, 0)
	e.nxt = append(e.nxt, 0)
	return slot
}

//consensus:hotpath
func (e *CountEngine) sortLive() {
	e.sorter.slots, e.sorter.reps = e.live, e.reps
	sort.Sort(&e.sorter)
}

// centry is one accumulator bin: a representative tuple and its count.
type centry struct {
	rep   Point
	count int64
}

// distOf buckets points into a sorted (tuples, counts) distribution.
func distOf(points []Point, dim int) ([]Point, []int64) {
	entries := make(map[string]*centry, 16)
	buf := make([]byte, 0, 8*dim)
	for _, p := range points {
		buf = appendPointKey(buf[:0], p)
		e := entries[string(buf)]
		if e == nil {
			e = &centry{rep: p.Clone()}
			entries[string(buf)] = e
		}
		e.count++
	}
	return sortedDist(entries)
}

// sortedDist flattens an accumulator map into the lexicographically
// sorted (tuples, counts) pair.
func sortedDist(entries map[string]*centry) ([]Point, []int64) {
	bins := make([]*centry, 0, len(entries))
	for _, e := range entries {
		bins = append(bins, e)
	}
	sort.Slice(bins, func(i, j int) bool { return pointLess(bins[i].rep, bins[j].rep) })
	tuples := make([]Point, len(bins))
	counts := make([]int64, len(bins))
	for i, e := range bins {
		tuples[i] = e.rep
		counts[i] = e.count
	}
	return tuples, counts
}

// pointLess is the lexicographic coordinate order — the deterministic
// tuple order the observer stream and plurality tie-break use.
func pointLess(p, q Point) bool {
	for i := range p {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return false
}

// N returns the population size.
func (e *CountEngine) N() int64 { return e.n }

// Dim returns the common dimension.
func (e *CountEngine) Dim() int { return e.dim }

// Round returns the number of executed rounds.
func (e *CountEngine) Round() int { return e.round }

// Dist returns the live distribution in lexicographic tuple order. The
// slices and tuples are engine-owned views, valid until the next Step or
// Reset; callers must not modify them.
func (e *CountEngine) Dist() ([]Point, []int64) {
	e.refreshViews()
	return e.viewTuples, e.viewCounts
}

// Support returns the number of distinct live tuples.
func (e *CountEngine) Support() int { return len(e.live) }

// Reset rewinds the engine to round zero on a new (tuples, counts)
// distribution, reusing every internal workspace — repeated experiments
// over one engine allocate only when a never-seen tuple appears. The RNG
// stream is NOT rewound (each reset continues the stream), the initial
// tuple set for validity accounting is replaced, and counts must be
// positive with tuples distinct and of the engine's dimension.
func (e *CountEngine) Reset(tuples []Point, counts []int64) {
	if len(tuples) == 0 || len(tuples) != len(counts) {
		panic("multidim: Reset with empty or mismatched distribution")
	}
	for _, s := range e.live {
		e.cur[s] = 0
	}
	e.live = e.live[:0]
	e.n = 0
	for i, p := range tuples {
		if len(p) != e.dim {
			panic(fmt.Sprintf("multidim: tuple %d has dimension %d, want %d", i, len(p), e.dim))
		}
		c := counts[i]
		if c <= 0 {
			panic(fmt.Sprintf("multidim: tuple %d has non-positive count %d", i, c))
		}
		slot := e.intern(p)
		if e.cur[slot] != 0 {
			panic(fmt.Sprintf("multidim: duplicate tuple %v in distribution", p))
		}
		e.cur[slot] = c
		e.live = append(e.live, slot)
		e.n += c
	}
	e.sortLive()
	e.initial = e.initial[:0]
	for _, s := range e.live {
		e.initial = append(e.initial, e.reps[s])
	}
	e.round = 0
}

// refreshViews rebuilds the flattened live (tuples, counts) view into the
// reusable view buffers.
//
//consensus:hotpath
func (e *CountEngine) refreshViews() {
	e.viewTuples = e.viewTuples[:0]
	e.viewCounts = e.viewCounts[:0]
	for _, s := range e.live {
		e.viewTuples = append(e.viewTuples, e.reps[s])
		e.viewCounts = append(e.viewCounts, e.cur[s])
	}
}

// Step executes one synchronous round: adversary first (the Section 1.1
// timing), then every process applies the coordinate-wise median of its own
// tuple and two tuples drawn independently and uniformly from the pre-round
// distribution.
//
//consensus:hotpath
func (e *CountEngine) Step() {
	if e.adv != nil {
		e.applyAdversary()
	}
	if len(e.live) > 1 {
		// Single-tuple states are a fixed point of the median dynamics;
		// skip the update (and its randomness) exactly like the scalar
		// count engine.
		if randx.RowsCheaper(e.n, len(e.live), 2) {
			e.refreshViews()
			e.rows.Round(e.g, e.viewCounts, 2, (*countRows)(e))
		} else {
			e.stepSampled()
		}
		e.commit()
	}
	e.round++
}

// rebuildWeights refreshes the live-parallel sampling weights (counts as
// float64 — peers are uniform over processes, so tuples weigh by count).
//
//consensus:hotpath
func (e *CountEngine) rebuildWeights() {
	e.weights = e.weights[:0]
	for _, s := range e.live {
		e.weights = append(e.weights, float64(e.cur[s]))
	}
}

// bump adds c balls to slot's next-round bin, tracking first touches.
//
//consensus:hotpath
func (e *CountEngine) bump(slot int32, c int64) {
	if e.nxt[slot] == 0 {
		e.tch = append(e.tch, slot)
	}
	e.nxt[slot] += c
}

// stepSampled is the per-ball round: two alias draws per ball. O(n) time.
//
//consensus:hotpath
func (e *CountEngine) stepSampled() {
	e.rebuildWeights()
	e.alias.Rebuild(e.weights)
	for _, s := range e.live {
		own := e.reps[s]
		for b := int64(0); b < e.cur[s]; b++ {
			a := e.reps[e.live[e.alias.Draw(e.g)]]
			c := e.reps[e.live[e.alias.Draw(e.g)]]
			CoordMedian(e.scratch, own, a, c)
			e.bump(e.intern(e.scratch), 1)
		}
	}
}

// countRows is the CountEngine seen as a randx.RowRule over its live
// slots: output bins are slots.
type countRows CountEngine

// Next implements randx.RowRule.
//
//consensus:hotpath
func (r *countRows) Next(own int, sample []int32) int32 {
	e := (*CountEngine)(r)
	so, sa, sb := e.live[own], e.live[sample[0]], e.live[sample[1]]
	CoordMedian(e.scratch, e.reps[so], e.reps[sa], e.reps[sb])
	// The median is usually one of its inputs; compare before hashing.
	switch {
	case e.scratch.Equal(e.reps[so]):
		return so
	case e.scratch.Equal(e.reps[sa]):
		return sa
	case e.scratch.Equal(e.reps[sb]):
		return sb
	}
	return e.intern(e.scratch)
}

// Move implements randx.RowRule.
//
//consensus:hotpath
func (r *countRows) Move(to int32, c int64) { (*CountEngine)(r).bump(to, c) }

// commit swaps the accumulated next-round counts in as the live
// distribution, restoring the all-zero accumulator invariant.
//
//consensus:hotpath
func (e *CountEngine) commit() {
	for _, s := range e.live {
		e.cur[s] = 0
	}
	e.cur, e.nxt = e.nxt, e.cur
	e.live, e.tch = e.tch, e.live[:0]
	e.sortLive()
}

// applyAdversary flattens the live distribution, lets the adversary rewrite
// it, and re-interns the result.
func (e *CountEngine) applyAdversary() {
	e.refreshViews()
	tuples, counts := e.adv.CorruptCounts(e.round, e.viewTuples, e.viewCounts, e.initial, e.g)
	for _, s := range e.live {
		e.cur[s] = 0
	}
	e.live = e.live[:0]
	var n int64
	for i, p := range tuples {
		c := counts[i]
		if c < 0 {
			panic(fmt.Sprintf("multidim: adversary produced negative count %d for tuple %v", c, p))
		}
		if c == 0 {
			continue
		}
		slot := e.intern(p)
		if e.cur[slot] == 0 {
			e.live = append(e.live, slot)
		}
		e.cur[slot] += c
		n += c
	}
	if n != e.n {
		panic(fmt.Sprintf("multidim: adversary changed the population (%d -> %d)", e.n, n))
	}
	e.sortLive()
	// Keep grown adversary-extended buffers for the next round's views.
	e.viewTuples, e.viewCounts = tuples[:0], counts[:0]
}

// Run steps until consensus or the round cap and returns the Result,
// mirroring the per-process Engine.Run loop: observer after every executed
// round, stop at the single-tuple fixed point — but, like the per-process
// engine, never stop early under an adversary (momentary agreement is not
// stable when states can be rewritten next round).
func (e *CountEngine) Run() Result {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	for e.round < maxRounds {
		e.Step()
		if e.opts.Observer != nil {
			e.refreshViews()
			e.opts.Observer(e.round, e.viewTuples, e.viewCounts)
		}
		if e.adv == nil && len(e.live) == 1 {
			break
		}
	}
	return e.result()
}

func (e *CountEngine) result() Result {
	e.refreshViews()
	winner, count := DistPlurality(e.viewTuples, e.viewCounts)
	return Result{
		Rounds:      e.round,
		Consensus:   count == e.n,
		Winner:      winner.Clone(),
		WinnerCount: int(count),
		TupleValid:  containsPoint(e.initial, winner),
		CoordValid:  coordsValid(e.initial, winner),
	}
}

// DistPlurality returns the most frequent tuple of a (tuples, counts)
// distribution and its count. With lexicographically sorted tuples the
// first maximal count wins, so ties resolve to the smallest tuple —
// deterministic, like Plurality's state-order tie-break. The winner
// aliases a tuple in the slice.
//
//consensus:hotpath
func DistPlurality(tuples []Point, counts []int64) (Point, int64) {
	var winner Point
	var best int64 = -1
	for i, c := range counts {
		if c > best {
			winner, best = tuples[i], c
		}
	}
	return winner, best
}

// CorruptCounts implements CountAdversary for the noise strategy: each of
// the T corruptions rewrites one uniformly chosen ball with a uniformly
// chosen initial tuple — distributionally identical to the per-process
// Corrupt, expressed as count moves.
func (a *NoiseAdversary) CorruptCounts(round int, tuples []Point, counts []int64, allowed []Point, g *rng.Xoshiro256) ([]Point, []int64) {
	var n int64
	for _, c := range counts {
		n += c
	}
	for k := 0; k < a.T && n > 0; k++ {
		// Victim ball uniform over processes = bin weighted by count.
		t := int64(g.Uint64n(uint64(n)))
		vi := 0
		for t >= counts[vi] {
			t -= counts[vi]
			vi++
		}
		src := allowed[g.Intn(len(allowed))]
		counts[vi]--
		tuples, counts = addTupleCount(tuples, counts, src, 1)
	}
	return tuples, counts
}

// addTupleCount adds c balls to p's bin, appending a new bin when p is not
// yet present. Linear in the support — fine for the small-k regime the
// count engine lives in.
func addTupleCount(tuples []Point, counts []int64, p Point, c int64) ([]Point, []int64) {
	for i, q := range tuples {
		if q.Equal(p) {
			counts[i] += c
			return tuples, counts
		}
	}
	return append(tuples, p), append(counts, c)
}
