// Package core implements the synchronous-round simulation engines for the
// paper's process model (Section 2.1): n balls (processes) each holding a
// value (bin), updated in lock-step rounds
//
//	b_{t,j} = rule(b_{t-1,j}, b_{t-1,I_{t,j}}, b_{t-1,J_{t,j}})
//
// with I, J uniform on [n], and a T-bounded adversary that may rewrite up to
// T process states at the beginning of each round (model.BallAdversary /
// model.CountAdversary) or manipulate the freshly computed values after the
// random choices are made (model.PostRoundAdversary — the Section 3 timing
// used by Theorem 10).
//
// Two engines share one Result/Options contract:
//
//   - BallEngine — exact per-ball simulation. O(n) memory, O(n·s) sampling
//     per round. Supports every adversary hook, per-ball observers, the
//     in-place (asynchronous) ablation, and parallel execution with
//     per-shard RNG streams.
//   - CountEngine — exploits exchangeability: a ball's update depends only
//     on its own value and the value *distribution*, so the state is the
//     count vector, O(k) memory for k live values. A round takes the
//     first of three exact rounds that fits. Rules whose output is an
//     order statistic of the samples (model.OrderStatRule: median,
//     median-2K, minimum, maximum, voter) take the order-statistic round
//     of orderstat.go: about four binomials per live value, O(k) for any
//     n and s. Other rules move each value's balls with one multinomial
//     over its transition row (randx.Rows): k^(s+1) rule calls,
//     independent of n. When that costs more than n balls, the engine
//     samples every ball from an alias table instead, O(n·s). All three
//     are distributed exactly like BallEngine (see the exactness and
//     equivalence tests). On the Section 3 two-bin case a median round is
//     two binomials, L_{t+1} ~ Bin(L, 1−(1−p)²) + Bin(n−L, p²), p = L/n,
//     so the lower-bound experiments run at n up to 2^62.
//
// All engines stop on consensus (the fixed point b_{t,1} = … = b_{t,n}), on
// the paper's *almost stable consensus* — all but at most `AlmostSlack`
// processes agreeing on one fixed value for `Window` consecutive rounds —
// or at MaxRounds.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/assign"
	"repro/internal/model"
	"repro/internal/randx"
	"repro/internal/rng"
)

// Value aliases the shared process-value type.
type Value = model.Value

// Timing selects when the adversary acts relative to the protocol round.
type Timing int

const (
	// BeforeRound: the adversary rewrites states at the beginning of each
	// round (the paper's Section 1.1 model).
	BeforeRound Timing = iota
	// AfterChoices: the adversary manipulates outcomes after the random
	// choices are made (the Section 3 / Theorem 10 model). Requires a
	// PostRoundAdversary for ball engines or a CountAdversary for count
	// engines.
	AfterChoices
)

// String returns the timing's spec name.
func (t Timing) String() string {
	if t == AfterChoices {
		return "after-choices"
	}
	return "before-round"
}

// CheckHook returns an error, naming the adversary, the engine and the
// timing, when a run would never call adv: per-ball engines (perBall) call
// CorruptBalls before the round and CorruptAfter after the random choices,
// and the count engine calls CorruptCounts at either timing. A nil
// adversary always passes.
func CheckHook(adv model.Adversary, engine string, perBall bool, t Timing) error {
	var ok bool
	hook := "CorruptCounts"
	switch {
	case adv == nil:
		return nil
	case !perBall:
		_, ok = adv.(model.CountAdversary)
	case t == AfterChoices:
		_, ok = adv.(model.PostRoundAdversary)
		hook = "CorruptAfter"
	default:
		_, ok = adv.(model.BallAdversary)
		hook = "CorruptBalls"
	}
	if ok {
		return nil
	}
	return fmt.Errorf("adversary %q has no %s, the only hook engine %q calls at timing %q", adv.Name(), hook, engine, t)
}

// Options configures a run. The zero value means: run to consensus or 2^20
// rounds, no almost-stability detection, sequential execution.
type Options struct {
	// MaxRounds caps the simulation; 0 means DefaultMaxRounds.
	MaxRounds int
	// AlmostSlack enables almost-stable detection when > 0: the run stops
	// once at least n−AlmostSlack processes agree on one fixed value for
	// Window consecutive rounds.
	AlmostSlack int
	// Window is the consecutive-round window for almost-stability;
	// 0 means DefaultWindow.
	Window int
	// Timing selects the adversary hook point.
	Timing Timing
	// Workers shards the BallEngine update loop; 0 or 1 is sequential.
	// Results are deterministic for a fixed (seed, Workers) pair.
	Workers int
	// InPlace switches the BallEngine to asynchronous in-place updates
	// (reads may see same-round writes). Ablation only; the paper's model
	// is synchronous.
	InPlace bool
	// Observer, when non-nil, is called after every round with the round
	// index and the current distribution (sorted values and counts). The
	// slices are reused; observers must copy what they keep.
	Observer func(round int, vals []Value, counts []int64)
}

// DefaultMaxRounds caps runs whose Options.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// DefaultWindow is the almost-stability window when Options.Window is zero.
const DefaultWindow = 8

// Result reports the outcome of a run.
type Result struct {
	// Rounds is the number of protocol rounds executed.
	Rounds int
	// Reason states why the run stopped.
	Reason model.StopReason
	// Winner is the plurality value at the end (the consensus value when
	// Reason is StopConsensus or StopAlmostStable).
	Winner Value
	// WinnerCount is the number of processes holding Winner at the end.
	WinnerCount int64
	// StableSince is the first round of the final stability window
	// (meaningful when Reason is StopAlmostStable or StopConsensus).
	StableSince int
}

// String renders the result compactly for logs and traces.
func (r Result) String() string {
	return fmt.Sprintf("%s after %d rounds (winner %d held by %d)",
		r.Reason, r.Rounds, r.Winner, r.WinnerCount)
}

// StabilityTracker implements the stop logic every engine shares (the
// ball and count engines here, and the gossip network).
//
// Semantics follow the paper: without an adversary, full agreement is a
// fixed point of the dynamics, so count == n stops the run immediately with
// StopConsensus. With an adversary, momentary full agreement is *not*
// stable (the adversary rewrites states next round), so the tracker only
// ever reports StopAlmostStable, and only after the plurality value has
// held at least n−slack processes for `window` consecutive rounds.
type StabilityTracker struct {
	slack      int64
	window     int
	n          int64
	fixedPoint bool // true when no adversary is present
	currWin    Value
	run        int
	since      int
}

// NewStabilityTracker returns the tracker of a run over n processes;
// fixedPoint is set when no adversary is present. It reads only
// opts.AlmostSlack and opts.Window.
func NewStabilityTracker(n int64, fixedPoint bool, opts Options) *StabilityTracker {
	w := opts.Window
	if w <= 0 {
		w = DefaultWindow
	}
	return &StabilityTracker{
		slack:      int64(opts.AlmostSlack),
		window:     w,
		n:          n,
		fixedPoint: fixedPoint,
	}
}

// Observe processes the round's plurality value and count; it returns a
// stop reason and true when the run should stop.
//
//consensus:hotpath
func (s *StabilityTracker) Observe(round int, winner Value, count int64) (model.StopReason, bool) {
	if s.fixedPoint && count == s.n {
		s.since = round
		return model.StopConsensus, true
	}
	if s.fixedPoint && s.slack <= 0 {
		return 0, false
	}
	// Window logic; with slack == 0 under an adversary, the threshold is
	// full agreement sustained over the window.
	if count >= s.n-s.slack {
		if s.run == 0 || winner != s.currWin {
			s.currWin = winner
			s.run = 1
			s.since = round
		} else {
			s.run++
		}
		if s.run >= s.window {
			return model.StopAlmostStable, true
		}
	} else {
		s.run = 0
	}
	return 0, false
}

// BallEngine simulates the exact per-ball process.
type BallEngine struct {
	state, next []Value
	allowed     []Value
	rule        model.Rule
	adv         model.Adversary
	opts        Options
	g           *rng.Xoshiro256   // adversary + sequential sampling stream
	shards      []*rng.Xoshiro256 // per-worker streams
	round       int
	// obsVals/obsCounts are the reusable distribution view handed to the
	// observer each round (see distInto).
	obsVals   []Value
	obsCounts []int64
}

// NewBallEngine builds a per-ball engine over the initial configuration cfg.
// The adversary may be nil. The allowed value set (what the adversary may
// write) is cfg's initial value set, per the paper.
func NewBallEngine(cfg assign.Config, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *BallEngine {
	if len(cfg) == 0 {
		panic("core: empty configuration")
	}
	if rule == nil {
		panic("core: nil rule")
	}
	e := &BallEngine{
		state:   cfg.Clone(),
		next:    make([]Value, len(cfg)),
		rule:    rule,
		adv:     adv,
		opts:    opts,
		g:       rng.NewXoshiro256(seed),
		allowed: sortedValueSet(cfg),
	}
	if opts.Workers > 1 {
		e.shards = e.g.Split(opts.Workers)
	}
	return e
}

func sortedValueSet(cfg assign.Config) []Value {
	set := cfg.ValueSet()
	out := make([]Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State returns the live state vector (not a copy). Read-only for callers.
func (e *BallEngine) State() []Value { return e.state }

// Round returns the number of rounds executed so far.
func (e *BallEngine) Round() int { return e.round }

// Step executes one synchronous round.
func (e *BallEngine) Step() {
	n := len(e.state)
	if e.adv != nil && e.opts.Timing == BeforeRound {
		if ba, ok := e.adv.(model.BallAdversary); ok {
			ba.CorruptBalls(e.round, e.state, e.allowed, e.g)
		}
	}
	dst := e.next
	if e.opts.InPlace {
		dst = e.state
	}
	if e.opts.Workers > 1 && !e.opts.InPlace {
		e.stepParallel(dst)
	} else {
		e.stepRange(e.g, 0, n, dst)
	}
	if e.adv != nil && e.opts.Timing == AfterChoices {
		if pa, ok := e.adv.(model.PostRoundAdversary); ok {
			pa.CorruptAfter(e.round, dst, e.allowed, e.g)
		}
	}
	if !e.opts.InPlace {
		e.state, e.next = e.next, e.state
	}
	e.round++
}

// stepRange computes next values for balls [lo, hi) using stream g.
//
//consensus:hotpath
func (e *BallEngine) stepRange(g *rng.Xoshiro256, lo, hi int, dst []Value) {
	n := uint64(len(e.state))
	s := e.rule.Samples()
	var buf [8]Value
	var sampled []Value
	if s <= len(buf) {
		sampled = buf[:s]
	} else {
		sampled = make([]Value, s)
	}
	for i := lo; i < hi; i++ {
		for k := 0; k < s; k++ {
			sampled[k] = e.state[g.Uint64n(n)]
		}
		dst[i] = e.rule.Update(e.state[i], sampled)
	}
}

func (e *BallEngine) stepParallel(dst []Value) {
	n := len(e.state)
	w := len(e.shards)
	chunk := (n + w - 1) / w
	done := make(chan struct{}, w)
	for s := 0; s < w; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(g *rng.Xoshiro256, lo, hi int) {
			e.stepRange(g, lo, hi, dst)
			done <- struct{}{}
		}(e.shards[s], lo, hi)
	}
	for s := 0; s < w; s++ {
		<-done
	}
}

// Run executes rounds until a stop condition fires and returns the Result.
func (e *BallEngine) Run() Result {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	tracker := NewStabilityTracker(int64(len(e.state)), e.adv == nil, e.opts)
	counts := make(map[Value]int64, 16)

	// Check the initial state too: a run that starts at consensus is done.
	if w, c, stop, res := e.checkState(tracker, counts, 0); stop {
		return Result{Rounds: 0, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
	}
	for e.round < maxRounds {
		e.Step()
		if w, c, stop, res := e.checkState(tracker, counts, e.round); stop {
			return Result{Rounds: e.round, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
		}
	}
	w, c := PluralityOf(e.state, counts)
	return Result{Rounds: e.round, Reason: model.StopMaxRounds, Winner: w, WinnerCount: c}
}

//consensus:hotpath
func (e *BallEngine) checkState(tracker *StabilityTracker, counts map[Value]int64, round int) (Value, int64, bool, model.StopReason) {
	w, c := PluralityOf(e.state, counts)
	if e.opts.Observer != nil {
		vals, cnts := e.distInto(counts)
		e.opts.Observer(round, vals, cnts)
	}
	if reason, stop := tracker.Observe(round, w, c); stop {
		return w, c, true, reason
	}
	return w, c, false, 0
}

// PluralityOf fills counts (clearing it first) and returns the plurality
// value, breaking ties toward the smaller value for determinism.
//
//consensus:hotpath
func PluralityOf(state []Value, counts map[Value]int64) (Value, int64) {
	for k := range counts {
		delete(counts, k)
	}
	for _, v := range state {
		counts[v]++
	}
	var best Value
	var bestC int64 = -1
	for v, c := range counts {
		if c > bestC || (c == bestC && v < best) {
			best, bestC = v, c
		}
	}
	return best, bestC
}

// distInto flattens the count map into the engine-owned sorted scratch
// slices handed to the observer — reused every round, so an observed
// per-ball run stays allocation-free at steady state (the value set can
// only shrink under median-like rules).
//
//consensus:hotpath
func (e *BallEngine) distInto(counts map[Value]int64) ([]Value, []int64) {
	e.obsVals = e.obsVals[:0]
	for v := range counts {
		e.obsVals = append(e.obsVals, v)
	}
	slices.Sort(e.obsVals)
	if cap(e.obsCounts) < len(e.obsVals) {
		e.obsCounts = make([]int64, len(e.obsVals))
	}
	cnts := e.obsCounts[:len(e.obsVals)]
	for i, v := range e.obsVals {
		cnts[i] = counts[v]
	}
	return e.obsVals, cnts
}

// CountEngine simulates the process at the level of the value distribution.
// Its round workspaces (the order-statistic round's per-bin scratch;
// transition rows, weights, alias table, accumulator map, sample buffer)
// are engine-owned and reused across rounds, so a steady-state round
// performs zero heap allocations (see TestCountEngineRoundAllocs).
type CountEngine struct {
	vals    []Value
	counts  []int64
	n       int64
	allowed []Value
	rule    model.Rule
	adv     model.Adversary
	opts    Options
	g       *rng.Xoshiro256
	round   int
	// acc accumulates the next round's distribution.
	acc map[Value]int64
	// Round workspaces, retained across rounds.
	rows    randx.Rows
	weights []float64
	alias   randx.Alias
	sampled []Value
	// extra numbers the values a transition-row round produces outside the
	// live set (rules such as mean create values): output bin len(vals)+i
	// is extraVals[i].
	extra     map[Value]int32
	extraVals []Value
	// os runs the O(k) round of orderstat.go when the rule has an
	// order-statistic form (model.OrderStatRule); nil otherwise.
	os *orderStatRound
}

// NewCountEngine builds a count-level engine from the initial configuration.
func NewCountEngine(cfg assign.Config, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *CountEngine {
	if len(cfg) == 0 {
		panic("core: empty configuration")
	}
	return NewCountEngineDist(cfg.Dist(), rule, adv, seed, opts)
}

// NewCountEngineDist builds a count-level engine directly over a value
// distribution (strictly increasing vals, positive counts) — the
// distribution-level entry point the count-native init builders feed,
// never materializing the O(n) per-ball vector. The slices are cloned, so
// the caller keeps ownership.
func NewCountEngineDist(d assign.Dist, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *CountEngine {
	if len(d.Vals) == 0 || len(d.Vals) != len(d.Counts) {
		panic("core: empty or mismatched distribution")
	}
	if rule == nil {
		panic("core: nil rule")
	}
	var n int64
	for i, c := range d.Counts {
		if c <= 0 {
			panic(fmt.Sprintf("core: non-positive count %d for value %d", c, d.Vals[i]))
		}
		if i > 0 && d.Vals[i-1] >= d.Vals[i] {
			panic("core: distribution values must be strictly increasing")
		}
		n += c
	}
	e := &CountEngine{
		vals:    append([]Value(nil), d.Vals...),
		counts:  append([]int64(nil), d.Counts...),
		n:       n,
		rule:    rule,
		adv:     adv,
		opts:    opts,
		g:       rng.NewXoshiro256(seed),
		allowed: append([]Value(nil), d.Vals...),
	}
	if r, ok := rule.(model.OrderStatRule); ok {
		e.os = newOrderStatRound(r)
	} else {
		e.acc = make(map[Value]int64, len(d.Vals))
		e.extra = make(map[Value]int32)
		e.sampled = make([]Value, rule.Samples())
	}
	return e
}

// Dist returns copies of the current sorted values and counts.
func (e *CountEngine) Dist() ([]Value, []int64) {
	return append([]Value(nil), e.vals...), append([]int64(nil), e.counts...)
}

// Count returns the number of balls holding v (0 when none does).
func (e *CountEngine) Count(v Value) int64 {
	if i, ok := slices.BinarySearch(e.vals, v); ok {
		return e.counts[i]
	}
	return 0
}

// Round returns the number of rounds executed.
func (e *CountEngine) Round() int { return e.round }

// Step executes one synchronous round.
//
//consensus:hotpath
func (e *CountEngine) Step() {
	if e.adv != nil && e.opts.Timing == BeforeRound {
		if ca, ok := e.adv.(model.CountAdversary); ok {
			e.vals, e.counts = ca.CorruptCounts(e.round, e.vals, e.counts, e.allowed, e.g)
			e.prune()
		}
	}
	// Consensus is a fixed point for every sampled rule: skip the update
	// (and its randomness). Otherwise take the cheapest exact round: the
	// order-statistic round when the rule has that form, else transition
	// rows or per-ball sampling, whichever costs less here.
	switch s := e.rule.Samples(); {
	case len(e.vals) <= 1:
	case e.os != nil:
		e.vals, e.counts = e.os.step(e.g, e.vals, e.counts, e.n)
	case randx.RowsCheaper(e.n, len(e.vals), s):
		clear(e.acc)
		clear(e.extra)
		e.extraVals = e.extraVals[:0]
		e.rows.Round(e.g, e.counts, s, (*countRows)(e))
		e.commit()
	default:
		clear(e.acc)
		e.stepSampled()
		e.commit()
	}
	if e.adv != nil && e.opts.Timing == AfterChoices {
		if ca, ok := e.adv.(model.CountAdversary); ok {
			e.vals, e.counts = ca.CorruptCounts(e.round, e.vals, e.counts, e.allowed, e.g)
			e.prune()
		}
	}
	e.round++
}

// stepSampled draws every ball's peers from the current distribution via
// an alias table and accumulates the next distribution into acc: the
// per-ball round, O(n·s), for supports too large for transition rows.
// Every buffer it touches is engine-owned and reused, so steady-state
// rounds allocate nothing (median-like rules only ever produce
// already-seen values, so the accumulator map stops growing after the
// first round).
//
//consensus:hotpath
func (e *CountEngine) stepSampled() {
	e.weights = e.weights[:0]
	for _, k := range e.counts {
		e.weights = append(e.weights, float64(k))
	}
	e.alias.Rebuild(e.weights)
	for bi, cnt := range e.counts {
		own := e.vals[bi]
		for b := int64(0); b < cnt; b++ {
			for k := range e.sampled {
				e.sampled[k] = e.vals[e.alias.Draw(e.g)]
			}
			e.acc[e.rule.Update(own, e.sampled)]++
		}
	}
}

// commit rebuilds the sorted (vals, counts) vectors from acc.
//
//consensus:hotpath
func (e *CountEngine) commit() {
	e.vals = e.vals[:0]
	for v := range e.acc {
		e.vals = append(e.vals, v)
	}
	slices.Sort(e.vals)
	e.counts = e.counts[:0]
	for _, v := range e.vals {
		e.counts = append(e.counts, e.acc[v])
	}
}

// countRows is the CountEngine seen as a randx.RowRule: output bins are
// live-value indices, then extraVals.
type countRows CountEngine

// Next implements randx.RowRule.
//
//consensus:hotpath
func (r *countRows) Next(own int, sample []int32) int32 {
	e := (*CountEngine)(r)
	for i, w := range sample {
		e.sampled[i] = e.vals[w]
	}
	u := e.rule.Update(e.vals[own], e.sampled)
	// Most rules return one of their inputs; look there before searching
	// (by index: a rule may reorder the sampled slice).
	if u == e.vals[own] {
		return int32(own)
	}
	for _, w := range sample {
		if u == e.vals[w] {
			return w
		}
	}
	if i, ok := slices.BinarySearch(e.vals, u); ok {
		return int32(i)
	}
	id, ok := e.extra[u]
	if !ok {
		id = int32(len(e.vals) + len(e.extraVals))
		e.extra[u] = id
		e.extraVals = append(e.extraVals, u)
	}
	return id
}

// Move implements randx.RowRule.
//
//consensus:hotpath
func (r *countRows) Move(to int32, c int64) {
	e := (*CountEngine)(r)
	if int(to) < len(e.vals) {
		e.acc[e.vals[to]] += c
	} else {
		e.acc[e.extraVals[int(to)-len(e.vals)]] += c
	}
}

// prune removes zero-count bins (adversaries may empty a bin) and checks
// the rest of what a count adversary returned: counts non-negative,
// values strictly increasing, and the ball total unchanged.
//
//consensus:hotpath
func (e *CountEngine) prune() {
	if len(e.counts) != len(e.vals) {
		e.rejectAdversary("returned values and counts of different lengths")
	}
	j := 0
	var total int64
	for i, c := range e.counts {
		if c < 0 {
			e.rejectAdversary("returned a negative count")
		}
		if i > 0 && e.vals[i-1] >= e.vals[i] {
			e.rejectAdversary("returned values out of order")
		}
		total += c
		if c > 0 {
			e.vals[j] = e.vals[i]
			e.counts[j] = c
			j++
		}
	}
	if total != e.n {
		e.rejectAdversary("changed the ball total")
	}
	e.vals = e.vals[:j]
	e.counts = e.counts[:j]
}

// rejectAdversary panics, naming the count adversary and what it broke.
func (e *CountEngine) rejectAdversary(what string) {
	panic(fmt.Sprintf("core: adversary %s %s", e.adv.Name(), what))
}

// Run executes rounds until a stop condition fires.
func (e *CountEngine) Run() Result {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	tracker := NewStabilityTracker(e.n, e.adv == nil, e.opts)
	if w, c, stop, res := e.check(tracker, 0); stop {
		return Result{Rounds: 0, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
	}
	for e.round < maxRounds {
		e.Step()
		if w, c, stop, res := e.check(tracker, e.round); stop {
			return Result{Rounds: e.round, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
		}
	}
	w, c := e.plurality()
	return Result{Rounds: e.round, Reason: model.StopMaxRounds, Winner: w, WinnerCount: c}
}

//consensus:hotpath
func (e *CountEngine) check(tracker *StabilityTracker, round int) (Value, int64, bool, model.StopReason) {
	w, c := e.plurality()
	if e.opts.Observer != nil {
		e.opts.Observer(round, e.vals, e.counts)
	}
	if reason, stop := tracker.Observe(round, w, c); stop {
		return w, c, true, reason
	}
	return w, c, false, 0
}

//consensus:hotpath
func (e *CountEngine) plurality() (Value, int64) {
	var best Value
	var bestC int64 = -1
	for i, c := range e.counts {
		if c > bestC {
			best, bestC = e.vals[i], c
		}
	}
	return best, bestC
}
