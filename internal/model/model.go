// Package model declares the small set of interfaces shared by every engine,
// rule and adversary in the repository: the process-value type, the update
// rule contract, the T-bounded adversary contract, and the randomness
// interface engines hand to adversaries, plus the optional order-statistic
// form of a rule that the count engine's fast round runs on.
//
// It is a leaf package so that the public facade packages (consensus, rules,
// adversary) and the internal engines (internal/core, internal/gossip) can
// all depend on the same named types without import cycles. The public
// packages re-export these types via aliases, so downstream users never need
// to spell out the internal path.
package model

// Value is a process value ("bin" in the paper's balls-and-bins view). The
// paper assumes values are natural numbers storable in O(log n) bits; int64
// covers that for any machine-representable n.
type Value = int64

// Rand is the randomness interface the engines expose to rules and
// adversaries. *rng.Xoshiro256 implements it. Keeping the surface minimal
// lets adversaries be tested with deterministic stubs.
type Rand interface {
	// Uint64 returns a uniform 64-bit value.
	Uint64() uint64
	// Intn returns a uniform int in [0, n); n must be > 0.
	Intn(n int) int
	// Float64 returns a uniform float64 in [0, 1).
	Float64() float64
}

// Rule is a local update rule. In every synchronous round each process draws
// Samples() uniform random processes (with replacement, possibly itself) and
// replaces its value with Update(own, sampled). The sampled slice is only
// valid for the duration of the call; rules must not retain it.
//
// The median rule — the paper's contribution — has Samples() == 2 and
// Update == median(own, s0, s1).
type Rule interface {
	// Name identifies the rule in experiment output.
	Name() string
	// Samples is the number of random peers contacted per round. It must
	// be >= 0 and constant for the lifetime of the rule.
	Samples() int
	// Update computes the next value from the current own value and the
	// sampled peer values. Deterministic rules must not use global state;
	// engines may call Update concurrently from several goroutines.
	Update(own Value, sampled []Value) Value
}

// OrderStatRule is an optional extension of Rule for rules whose output is
// an order statistic of the samples relative to the ball's own value. A
// ball keeps its value unless one of two disjoint things holds:
//
//   - at least down of its s samples lie strictly below its value: it then
//     takes the down-th smallest sample;
//   - at least up of them lie strictly above: it then takes the up-th
//     largest sample.
//
// A threshold above s never fires, and down + up > s keeps the two cases
// disjoint. The median rule is (2, 2, 2), minimum (1, 1, never) and voter
// (1, 1, 1). The count engine moves such a rule's balls in O(k) per round
// for k live values, instead of enumerating sample tuples; OrderStat must
// agree with Update on every input (the rules package tests this).
type OrderStatRule interface {
	Rule
	// OrderStat returns the sample count s (equal to Samples()) and the
	// down and up thresholds.
	OrderStat() (s, down, up int)
}

// Adversary is the paper's T-bounded adversary (Section 1.1): at the
// beginning of each round it may rewrite the state of up to Budget(n)
// processes, restricted to the initial value set. Concrete adversaries
// implement at least one of BallAdversary or CountAdversary; engines select
// whichever view matches their state representation via type assertion.
type Adversary interface {
	// Name identifies the adversary in experiment output.
	Name() string
	// Budget returns T, the per-round corruption budget, as a function of
	// the population size (the paper's canonical budget is ⌊√n⌋).
	Budget(n int) int
}

// BallAdversary corrupts a per-ball state vector in place. Implementations
// must change at most Budget(len(state)) entries and must write only values
// from allowed (the initial value set, per the paper's signed-values
// assumption). Engines do not check either constraint.
type BallAdversary interface {
	Adversary
	// CorruptBalls may mutate up to Budget(len(state)) entries of state.
	// round is the 0-based round about to execute; the adversary sees the
	// full current state (it is computationally unbounded and knows the
	// entire history, which it can reconstruct by recording).
	CorruptBalls(round int, state []Value, allowed []Value, r Rand)
}

// CountAdversary corrupts a count-vector state: vals lists the distinct
// current values in increasing order and counts the number of balls holding
// each. Implementations move balls between bins by decrementing one count
// and incrementing another; the total number of balls moved must not exceed
// Budget(n) and counts must remain non-negative. New bins may be introduced
// only for values in allowed. The count engine panics, naming the
// adversary, when the returned counts are negative or no longer sum to n,
// or the returned vals are not strictly increasing.
//
// The engine passes counts by pointer-shared slice; implementations that
// need to add a bin return the extended vectors.
//
// multidim.CountAdversary is the d-dimensional analogue of this contract
// (bins keyed by tuple instead of scalar value).
type CountAdversary interface {
	Adversary
	// CorruptCounts returns the (possibly re-allocated) vals and counts
	// after corruption. n is the total ball count.
	CorruptCounts(round int, vals []Value, counts []int64, allowed []Value, r Rand) ([]Value, []int64)
}

// PostRoundAdversary is the Section 3 variant used in Theorem 10: the
// adversary manipulates the *random choices* of up to T balls, which is
// equivalent to rewriting the post-update values of those balls (each
// manipulated ball can be steered to any value obtainable as a median with
// its own value; for the two-bin case, to either bin). Engines that support
// this timing call CorruptAfter on the freshly computed next state.
type PostRoundAdversary interface {
	Adversary
	// CorruptAfter may mutate up to Budget(len(next)) entries of next,
	// restricted to allowed.
	CorruptAfter(round int, next []Value, allowed []Value, r Rand)
}

// StopReason reports why a run ended.
type StopReason int

const (
	// StopMaxRounds: the round limit was reached without meeting the
	// configured stability condition.
	StopMaxRounds StopReason = iota
	// StopConsensus: every process holds the same value (the algorithm
	// reached its fixed point, Section 2.1).
	StopConsensus
	// StopAlmostStable: all but at most the configured slack processes
	// have agreed on one fixed value for the configured window of
	// consecutive rounds (the paper's almost stable consensus, observed
	// over a finite window).
	StopAlmostStable
)

// String returns a human-readable reason.
func (s StopReason) String() string {
	switch s {
	case StopMaxRounds:
		return "max-rounds"
	case StopConsensus:
		return "consensus"
	case StopAlmostStable:
		return "almost-stable"
	default:
		return "unknown"
	}
}
