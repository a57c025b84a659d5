// Package gossip implements the paper's process-level communication model
// (Section 1.1) — as opposed to the balls-and-bins abstraction used by
// internal/core:
//
//   - n processes are completely interconnected in an *anonymous* network:
//     no global IDs; each process addresses peers through its own private
//     numbering (a private permutation of the others).
//   - Time proceeds in synchronized rounds. In each round every process
//     contacts at most a logarithmic number of other processes and exchanges
//     a logarithmic number of bits with each.
//   - A process with more than a logarithmic number of incoming requests
//     receives only a logarithmic number of them, *possibly selected by an
//     adversary*, and the others are dropped.
//
// The median rule runs on top: each process requests the values of two
// uniformly random peers (possibly itself); dropped requests are substituted
// with the requester's own value (median(v, v, x) = v, so a dropped sample
// conservatively keeps the requester's value — it never invents one).
//
// The conformance experiments (E12) show this message-level simulator and
// the balls-and-bins engines produce statistically indistinguishable
// convergence behaviour: with the default capacity c·⌈log₂ n⌉ the drop rate
// is negligible because the in-degree of 2n uniform requests concentrates
// near 2.
package gossip

import (
	"math"
	"slices"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
)

// Value aliases the shared process-value type.
type Value = model.Value

// DropSelector decides which incoming requests a saturated process answers.
// Given the requester indices (internal numbering) and the capacity, it
// returns the subset (length ≤ cap) to answer. The paper allows this choice
// to be adversarial.
type DropSelector interface {
	// Select returns the requests to keep. It may reorder requesters but
	// must return a subset of them with length at most cap.
	Select(target int, requesters []int32, cap int, r model.Rand) []int32
}

// KeepFirst answers requests in arrival order (arrival order is already
// random because requesters draw targets independently).
type KeepFirst struct{}

// Select implements DropSelector.
func (KeepFirst) Select(_ int, requesters []int32, cap int, _ model.Rand) []int32 {
	if len(requesters) <= cap {
		return requesters
	}
	return requesters[:cap]
}

// DropValue is an adversarial selector that prefers to drop requests from
// processes holding a designated value, starving them of samples.
type DropValue struct {
	// Victim is the value whose holders' requests are dropped first.
	Victim Value
	// state gives the selector read access to current values; wired by the
	// network each round.
	state []Value
}

// Select implements DropSelector.
func (d *DropValue) Select(_ int, requesters []int32, cap int, _ model.Rand) []int32 {
	if len(requesters) <= cap {
		return requesters
	}
	kept := make([]int32, 0, cap)
	// First pass: keep non-victims.
	for _, q := range requesters {
		if len(kept) == cap {
			return kept
		}
		if d.state == nil || d.state[q] != d.Victim {
			kept = append(kept, q)
		}
	}
	// Fill remaining slots with victims if capacity remains.
	for _, q := range requesters {
		if len(kept) == cap {
			break
		}
		if d.state != nil && d.state[q] == d.Victim {
			kept = append(kept, q)
		}
	}
	return kept
}

// Options configures the network simulation.
type Options struct {
	// CapFactor scales the per-round incoming-request capacity
	// ⌈CapFactor·log₂ n⌉. 0 means DefaultCapFactor. Set a negative value
	// for unlimited capacity (the pure abstraction).
	CapFactor float64
	// Selector decides which requests saturated processes answer;
	// nil means KeepFirst.
	Selector DropSelector
	// MaxRounds caps Run; 0 means DefaultMaxRounds.
	MaxRounds int
	// AlmostSlack and Window mirror core.Options: almost-stable detection.
	AlmostSlack int
	Window      int
	// Observer, when non-nil, receives the sorted value distribution once
	// before the first round and after every executed round — the same
	// per-round hook the balls-and-bins engines expose. It is the service
	// layer's cancellation point: a panic raised inside the observer
	// unwinds Run mid-simulation. Slices are reused; observers must copy
	// what they keep. Observation never touches the RNG, so a run's
	// trajectory is independent of whether anyone is watching.
	Observer func(round int, vals []Value, counts []int64)
}

// DefaultCapFactor is the capacity multiplier when Options.CapFactor is 0.
const DefaultCapFactor = 4

// DefaultMaxRounds caps runs whose Options.MaxRounds is zero.
const DefaultMaxRounds = 1 << 18

// Stats accumulates message-level telemetry across a run.
type Stats struct {
	// RequestsSent counts value requests issued by all processes.
	RequestsSent int64
	// RequestsDropped counts requests dropped at saturated targets.
	RequestsDropped int64
	// MaxInDegree is the largest per-round request load observed at any
	// single process.
	MaxInDegree int
}

// Network is the message-passing simulator.
type Network struct {
	values  []Value
	next    []Value
	perms   [][]int32 // private numbering per process: perms[i][k] = global id
	rule    model.Rule
	adv     model.Adversary
	allowed []Value
	opts    Options
	g       *rng.Xoshiro256
	cap     int
	round   int
	stats   Stats

	// scratch per round
	reqFrom [][]int32       // requests received by each target
	pending [][]int32       // requester -> granted sample sources
	distm   map[Value]int64 // observer distribution aggregation
}

// New builds a network of len(cfg) processes initialised with cfg. The
// private numberings are sampled once at construction (they are fixed
// wiring, not per-round randomness).
func New(cfg assign.Config, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *Network {
	n := len(cfg)
	if n == 0 {
		panic("gossip: empty configuration")
	}
	if rule == nil {
		panic("gossip: nil rule")
	}
	g := rng.NewXoshiro256(seed)
	nw := &Network{
		values:  cfg.Clone(),
		next:    make([]Value, n),
		perms:   make([][]int32, n),
		rule:    rule,
		adv:     adv,
		opts:    opts,
		g:       g,
		allowed: allowedOf(cfg),
		reqFrom: make([][]int32, n),
	}
	for i := range nw.perms {
		p := g.Perm(n)
		row := make([]int32, n)
		for k, v := range p {
			row[k] = int32(v)
		}
		nw.perms[i] = row
	}
	cf := opts.CapFactor
	switch {
	case cf == 0:
		cf = DefaultCapFactor
	case cf < 0:
		nw.cap = n // effectively unlimited
	}
	if nw.cap == 0 {
		nw.cap = int(math.Ceil(cf * math.Log2(float64(n))))
		if nw.cap < 1 {
			nw.cap = 1
		}
	}
	return nw
}

func allowedOf(cfg assign.Config) []Value {
	d := cfg.Dist()
	return append([]Value(nil), d.Vals...)
}

// Values returns the live value vector (not a copy).
func (nw *Network) Values() []Value { return nw.values }

// Stats returns the accumulated message statistics.
func (nw *Network) Stats() Stats { return nw.stats }

// Cap returns the per-round incoming-request capacity in force.
func (nw *Network) Cap() int { return nw.cap }

// Round returns the number of rounds executed.
func (nw *Network) Round() int { return nw.round }

// Step executes one synchronous round of the message-passing protocol.
func (nw *Network) Step() {
	n := len(nw.values)
	s := nw.rule.Samples()

	// 1. Adversary rewrites states at the beginning of the round.
	if nw.adv != nil {
		if ba, ok := nw.adv.(model.BallAdversary); ok {
			ba.CorruptBalls(nw.round, nw.values, nw.allowed, nw.g)
		}
	}
	// Give value-aware drop selectors visibility of the post-corruption state.
	if dv, ok := nw.opts.Selector.(*DropValue); ok {
		dv.state = nw.values
	}

	// 2. Each process issues s requests through its private numbering.
	//    targets[i*s+k] is the k-th target of process i.
	for t := range nw.reqFrom {
		nw.reqFrom[t] = nw.reqFrom[t][:0]
	}
	targets := make([]int32, n*s)
	for i := 0; i < n; i++ {
		for k := 0; k < s; k++ {
			// A uniform index into the private numbering is a uniform
			// peer; index n-? : perm has length n including self at some
			// position, so self-sampling occurs naturally.
			t := nw.perms[i][nw.g.Intn(n)]
			targets[i*s+k] = t
			nw.reqFrom[t] = append(nw.reqFrom[t], int32(i))
		}
	}
	nw.stats.RequestsSent += int64(n * s)

	// 3. Capacity filtering at each target.
	granted := make(map[int64]bool, n*s) // key: target<<32 | requester... see key()
	sel := nw.opts.Selector
	if sel == nil {
		sel = KeepFirst{}
	}
	for t := 0; t < n; t++ {
		reqs := nw.reqFrom[t]
		if len(reqs) > nw.stats.MaxInDegree {
			nw.stats.MaxInDegree = len(reqs)
		}
		if len(reqs) <= nw.cap {
			for _, q := range reqs {
				granted[key(t, q)] = true
			}
			continue
		}
		kept := sel.Select(t, reqs, nw.cap, nw.g)
		if len(kept) > nw.cap {
			kept = kept[:nw.cap]
		}
		nw.stats.RequestsDropped += int64(len(reqs) - len(kept))
		for _, q := range kept {
			granted[key(t, q)] = true
		}
	}

	// 4. Responses and local update. A dropped request contributes the
	//    requester's own value. Note: duplicate requests to the same target
	//    are granted together (one response serves both samples).
	sampled := make([]Value, s)
	for i := 0; i < n; i++ {
		own := nw.values[i]
		for k := 0; k < s; k++ {
			t := targets[i*s+k]
			if granted[key(int(t), int32(i))] {
				sampled[k] = nw.values[t]
			} else {
				sampled[k] = own
			}
		}
		nw.next[i] = nw.rule.Update(own, sampled)
	}
	nw.values, nw.next = nw.next, nw.values
	nw.round++
}

func key(target int, requester int32) int64 {
	return int64(target)<<32 | int64(uint32(requester))
}

// Run executes rounds until consensus / almost-stability / MaxRounds,
// mirroring core's semantics.
type Result struct {
	Rounds      int
	Reason      model.StopReason
	Winner      Value
	WinnerCount int64
	Stats       Stats
}

// Run executes the protocol until a stop condition fires, under the stop
// rule every engine shares (core.StabilityTracker).
func (nw *Network) Run() Result {
	maxRounds := nw.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	tracker := core.NewStabilityTracker(int64(len(nw.values)), nw.adv == nil,
		core.Options{AlmostSlack: nw.opts.AlmostSlack, Window: nw.opts.Window})
	counts := make(map[Value]int64, 16)
	// With an observer attached, the per-round distribution is already
	// computed (sorted, so the first maximal count is the smallest tied
	// value — the same tie-break PluralityOf uses); reuse it rather than
	// aggregating the values a second time.
	var obsVals []Value
	var obsCounts []int64
	check := func() (Result, bool) {
		var w Value
		var c int64
		if nw.opts.Observer != nil {
			obsVals, obsCounts = nw.distInto(obsVals[:0], obsCounts[:0])
			nw.opts.Observer(nw.round, obsVals, obsCounts)
			c = -1
			for i, cnt := range obsCounts {
				if cnt > c {
					w, c = obsVals[i], cnt
				}
			}
		} else {
			w, c = core.PluralityOf(nw.values, counts)
		}
		reason, stop := tracker.Observe(nw.round, w, c)
		return Result{Rounds: nw.round, Reason: reason, Winner: w, WinnerCount: c, Stats: nw.stats}, stop
	}
	if res, stop := check(); stop {
		return res
	}
	for nw.round < maxRounds {
		nw.Step()
		if res, stop := check(); stop {
			return res
		}
	}
	w, c := core.PluralityOf(nw.values, counts)
	return Result{Rounds: nw.round, Reason: model.StopMaxRounds, Winner: w, WinnerCount: c, Stats: nw.stats}
}

// distInto appends the distribution of values (sorted by value, so
// observation is deterministic) onto the given scratch slices. The
// aggregation map is owned by the network and cleared per round, so an
// observed run allocates nothing after the support stabilizes.
//
//consensus:hotpath
func (nw *Network) distInto(vals []Value, counts []int64) ([]Value, []int64) {
	if nw.distm == nil {
		nw.distm = make(map[Value]int64, 16)
	} else {
		clear(nw.distm)
	}
	for _, v := range nw.values {
		nw.distm[v]++
	}
	for v := range nw.distm {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	for _, v := range vals {
		counts = append(counts, nw.distm[v])
	}
	return vals, counts
}
