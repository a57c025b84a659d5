// Package rules implements the local update rules studied by the paper:
//
//   - Median — the paper's contribution (Section 1.2): sample two uniform
//     processes and adopt the median of the three values. The power of two
//     choices applied to consensus.
//   - Majority — the two-value specialisation of Median used in Section 3's
//     analysis ("for the two bin-case, the median rule coincides with the
//     majority rule").
//   - Minimum / Maximum — the single-choice baselines from the introduction.
//     They converge in O(log n) rounds without an adversary but are
//     non-stabilizing under even a 1-bounded adversary (see package
//     adversary's Reviver for the attack).
//   - Mean — the averaging rule of Dolev et al. [17] adapted to the gossip
//     model. It converges towards a single number but violates validity:
//     the final value need not be any process's initial value (Section 1.2
//     points out the mean rule "no longer [is] guaranteed to solve the
//     consensus problem").
//   - KMedian — the k-choices generalisation (ablation for the paper's
//     "power of two choices" framing): sample 2k processes and adopt the
//     median of all 2k+1 values.
//   - Voter — adopt a single uniformly sampled value. The classical voter
//     model; needs Θ(n) rounds on the complete graph and serves as the
//     "one choice" contrast.
//
// Median, KMedian, Minimum, Maximum and Voter also give their
// order-statistic form (OrderStat, see model.OrderStatRule), which lets
// the count engine run them in O(k) per round for k live values.
//
// All rules are stateless and safe for concurrent use.
package rules

import (
	"fmt"

	"repro/internal/model"
)

// Value is a process value. Alias of the shared model type (an int64).
type Value = model.Value

// Rule is the update-rule contract engines execute; see the consensus
// package for the full protocol description.
type Rule = model.Rule

// Median is the paper's median rule: each round every process i picks two
// processes j, k uniformly and independently at random (possibly itself) and
// updates v_i to median(v_i, v_j, v_k).
type Median struct{}

// Name implements Rule.
func (Median) Name() string { return "median" }

// Samples implements Rule: the median rule contacts two peers.
func (Median) Samples() int { return 2 }

// Update returns median(own, sampled[0], sampled[1]).
func (Median) Update(own Value, sampled []Value) Value {
	a, b, c := own, sampled[0], sampled[1]
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

// OrderStat implements model.OrderStatRule: with both samples below its
// value a ball takes the larger, with both above the smaller.
func (Median) OrderStat() (s, down, up int) { return 2, 2, 2 }

// Majority adopts the majority value among own and two samples, keeping the
// own value on three-way ties. On two-value states it is exactly Median; it
// is provided separately because Section 3 phrases the two-bin analysis in
// majority terms and because on ≥3 values the two rules genuinely differ
// (majority has no ordering drift; this contrast is measured in the
// rule-comparison example).
type Majority struct{}

// Name implements Rule.
func (Majority) Name() string { return "majority" }

// Samples implements Rule.
func (Majority) Samples() int { return 2 }

// Update returns the value occurring at least twice among {own, s0, s1}, or
// own if all three differ.
func (Majority) Update(own Value, sampled []Value) Value {
	s0, s1 := sampled[0], sampled[1]
	if s0 == s1 {
		return s0
	}
	// s0 != s1: own breaks the tie if it matches either; otherwise keep own.
	return own
}

// Minimum is the introduction's minimum rule: contact one random process and
// keep the smaller value. Fast without an adversary, non-stabilizing with
// one.
type Minimum struct{}

// Name implements Rule.
func (Minimum) Name() string { return "minimum" }

// Samples implements Rule.
func (Minimum) Samples() int { return 1 }

// Update returns min(own, sampled[0]).
func (Minimum) Update(own Value, sampled []Value) Value {
	if sampled[0] < own {
		return sampled[0]
	}
	return own
}

// OrderStat implements model.OrderStatRule: a ball takes a sample below
// its value and never moves up (up = 2 > s).
func (Minimum) OrderStat() (s, down, up int) { return 1, 1, 2 }

// Maximum is the mirror image of Minimum.
type Maximum struct{}

// Name implements Rule.
func (Maximum) Name() string { return "maximum" }

// Samples implements Rule.
func (Maximum) Samples() int { return 1 }

// Update returns max(own, sampled[0]).
func (Maximum) Update(own Value, sampled []Value) Value {
	if sampled[0] > own {
		return sampled[0]
	}
	return own
}

// OrderStat implements model.OrderStatRule: the mirror of Minimum's.
func (Maximum) OrderStat() (s, down, up int) { return 1, 2, 1 }

// Mean is the averaging rule of [17] in the gossip model: adopt the rounded
// arithmetic mean of own and two sampled values. It violates validity — the
// consensus value is generally none of the initial values — which is exactly
// why the paper develops the median rule instead. Rounding is to the nearest
// integer (half away from zero) so the rule stays within int64.
type Mean struct{}

// Name implements Rule.
func (Mean) Name() string { return "mean" }

// Samples implements Rule.
func (Mean) Samples() int { return 2 }

// Update returns round((own + s0 + s1) / 3).
func (Mean) Update(own Value, sampled []Value) Value {
	sum := own + sampled[0] + sampled[1]
	q := sum / 3
	r := sum % 3
	switch {
	case r == 2 || (r == -2):
		if sum > 0 {
			q++
		} else {
			q--
		}
	}
	return q
}

// KMedian generalises the median rule to k pairs of choices: sample 2k
// processes and adopt the median of the 2k+1 values (own included). K = 1
// recovers Median. Larger K converges faster per round at 2k messages per
// process per round; the ablation benchmarks quantify the trade-off.
type KMedian struct {
	// K is the number of choice pairs; must be >= 1.
	K int
}

// NewKMedian returns a KMedian rule, panicking for K < 1.
func NewKMedian(k int) KMedian {
	if k < 1 {
		panic("rules: KMedian needs K >= 1")
	}
	return KMedian{K: k}
}

// Name implements Rule.
func (r KMedian) Name() string { return fmt.Sprintf("median-%dchoices", 2*r.K) }

// Samples implements Rule.
func (r KMedian) Samples() int { return 2 * r.K }

// kMedianStack is the largest value count (own plus 2K samples, K ≤ 8)
// whose median KMedian.Update selects without touching the heap.
const kMedianStack = 17

// Update returns the median of own and the 2K sampled values. It
// insertion-sorts a copy of them into a stack buffer, so for K ≤ 8 a call
// allocates nothing (the ball engine calls it n times per round).
func (r KMedian) Update(own Value, sampled []Value) Value {
	if len(sampled) == 2 { // fast path: plain median rule
		return Median{}.Update(own, sampled)
	}
	var stack [kMedianStack]Value
	buf := stack[:0]
	if len(sampled)+1 > len(stack) {
		buf = make([]Value, 0, len(sampled)+1)
	}
	buf = append(buf, own)
	for _, v := range sampled {
		i := len(buf)
		buf = append(buf, v)
		for ; i > 0 && buf[i-1] > v; i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = v
	}
	return buf[len(buf)/2]
}

// OrderStat implements model.OrderStatRule: the median of 2K+1 values is
// the (K+1)-th smallest sample when K+1 samples lie below the ball's value,
// and the (K+1)-th largest when K+1 lie above.
func (r KMedian) OrderStat() (s, down, up int) { return 2 * r.K, r.K + 1, r.K + 1 }

// Voter adopts one uniformly sampled value unconditionally — the classical
// single-choice voter model, the paper's "deterministic single choice rule
// would only allow us to implement the minimum or maximum rule" contrast
// made probabilistic.
type Voter struct{}

// Name implements Rule.
func (Voter) Name() string { return "voter" }

// Samples implements Rule.
func (Voter) Samples() int { return 1 }

// Update returns sampled[0].
func (Voter) Update(_ Value, sampled []Value) Value { return sampled[0] }

// OrderStat implements model.OrderStatRule: a sample below or above the
// ball's value is the first smallest or largest, and an equal one leaves
// the value as it is.
func (Voter) OrderStat() (s, down, up int) { return 1, 1, 1 }
