package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/randx"
	"repro/internal/rng"
)

// This file implements the count engine's order-statistic round: an O(k)
// round for rules whose output is an order statistic of the samples
// relative to the ball's own value (model.OrderStatRule: median,
// median-2K, minimum, maximum, voter).
//
// Let the live values be v₁ < … < v_k with counts c_i, n = Σc_i, and
// F_i = (c₁ + … + c_i)/n (F₀ = 0). A ball at v_i draws s samples; it takes
// the down-th smallest when at least down of them lie below v_i, the up-th
// largest when at least up lie above, and keeps v_i otherwise. With
// G(x) = P(Bin(s, x) ≥ down) and H(y) = P(Bin(s, y) ≥ up):
//
//   - it moves down with probability G(F_{i−1}) and up with H(1 − F_i);
//   - it lands at u < i with probability G(F_u) − G(F_{u−1}), since its
//     down-th smallest sample is at most v_u exactly when at least down
//     samples are; and at u > i with H(1 − F_{u−1}) − H(1 − F_u).
//
// A down-mover's landing law, given that it lands at or below u, is the
// same whichever bin above u it came from. So one top-down pass lands
// them all: a pool holds the down-movers of the bins above, and at bin i,
// Bin(pool, (G(F_i) − G(F_{i−1})) / G(F_i)) of them land. One bottom-up
// pass lands the up-movers with H. Every ball still moves independently
// with its exact transition row, so the round is distributed exactly like
// per-ball sampling (TestRowKernel* replays it against brute-force rows),
// at four binomials and three binomial tails per live value, for any n.
// Outputs are live values, so the counts are rewritten in place, with no
// accumulator map and no sort.
//
// One median round (s = down = up = 2, G(x) = H(x) = x²) on the
// TestRowKernel fixture {1: 3, 2: 5, 4: 1, 7: 6, 9: 5}, n = 20, so
// F = .15, .4, .45, .75, 1:
// a ball at 7 moves down with probability G(.45) = .2025, up with
// H(.25) = .0625, and stays with .735. Top-down, each down-mover of 9
// lands at 7 with probability (.75² − .45²)/.75² = .64; the rest join 7's
// down-movers in the pool, of which a fraction (.45² − .4²)/.45² ≈ .21
// lands at 4, then (.4² − .15²)/.4² ≈ .86 of what is left at 2, and the
// remainder at 1. Bottom-up, the up-movers of 1, 2 and 4 that pass 2 and
// 4 land at 7 with probability (.55² − .25²)/.55² ≈ .79, and the rest,
// with 7's own up-movers, at 9.

// orderStatRound is the order-statistic round of one rule: its form
// (s, down, up) and its per-bin scratch, reused across rounds.
type orderStatRound struct {
	s, down, up int
	upMoves     []int64   // up-movers of each bin
	upTail      []float64 // H(1 − F_i) of each bin
}

// newOrderStatRound checks a rule's order-statistic form against its
// sample count; it panics on a form the round cannot run, which only a
// rule's own bug produces.
func newOrderStatRound(r model.OrderStatRule) *orderStatRound {
	s, down, up := r.OrderStat()
	if s != r.Samples() || down < 1 || up < 1 || down+up <= s {
		panic(fmt.Sprintf("core: rule %s has order-statistic form (s=%d, down=%d, up=%d) for %d samples; need s = samples, thresholds ≥ 1 and down+up > s",
			r.Name(), s, down, up, r.Samples()))
	}
	return &orderStatRound{s: s, down: down, up: up}
}

// step moves the n balls of the live distribution (vals, counts) one
// round, rewriting counts in place, and returns the vectors without the
// bins it emptied.
//
//consensus:hotpath
func (r *orderStatRound) step(g *rng.Xoshiro256, vals []Value, counts []int64, n int64) ([]Value, []int64) {
	s, down, up := r.s, r.down, r.up
	k := len(counts)
	if cap(r.upMoves) < k {
		r.upMoves = make([]int64, k)
		r.upTail = make([]float64, k)
	}
	upMoves, upTail := r.upMoves[:k], r.upTail[:k]
	nf := float64(n)
	// Top-down: split each bin into down-movers, up-movers and stayers,
	// and land the down-movers of the bins above. gHi is G(F_i).
	var pool, above int64
	gHi := atLeast(s, down, 1)
	for i := k - 1; i >= 0; i-- {
		c := counts[i]
		below := n - above - c
		gLo := atLeast(s, down, float64(below)/nf)
		var landed int64
		if pool > 0 {
			p := 1.0
			if gHi > 0 {
				p = clamp01((gHi - gLo) / gHi)
			}
			landed = randx.Binomial(g, pool, p)
			pool -= landed
		}
		// P(not down) = P(at least s−down+1 samples at or above v_i),
		// taken directly rather than as 1 − gLo, which cancels.
		notDown := atLeast(s, s-down+1, float64(n-below)/nf)
		upTail[i] = atLeast(s, up, float64(above)/nf)
		dn := randx.Binomial(g, c, clamp01(gLo))
		var um int64
		if rest := c - dn; rest > 0 && notDown > 0 {
			um = randx.Binomial(g, rest, clamp01(upTail[i]/notDown))
		}
		upMoves[i] = um
		counts[i] = c - dn - um + landed
		pool += dn
		above += c
		gHi = gLo
	}
	// Bottom-up: land the up-movers of the bins below. hLo is H(1 − F_{i−1}).
	pool = 0
	hLo := atLeast(s, up, 1)
	for i := 0; i < k; i++ {
		if pool > 0 {
			p := 1.0
			if hLo > 0 {
				p = clamp01((hLo - upTail[i]) / hLo)
			}
			landed := randx.Binomial(g, pool, p)
			counts[i] += landed
			pool -= landed
		}
		pool += upMoves[i]
		hLo = upTail[i]
	}
	j := 0
	for i, c := range counts {
		if c > 0 {
			vals[j], counts[j] = vals[i], c
			j++
		}
	}
	return vals[:j], counts[:j]
}

// smallTail is the largest sample count whose binomial tails atLeast sums
// in plain arithmetic: C(60, 30) ≈ 1.2e17 fits a float64 with room, and a
// leading term of a tail that matters cannot underflow.
const smallTail = 60

// atLeast returns P(Bin(s, x) ≥ r), the probability that at least r of s
// uniform samples fall in a set of mass x. It sums the binomial terms
// j = r..s by their ratio recurrence, starting from the largest (the mode,
// clamped into [r, s]) so that no term that matters underflows.
//
//consensus:hotpath
func atLeast(s, r int, x float64) float64 {
	switch {
	case r <= 0:
		return 1
	case r > s || x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	j := min(max(int(float64(s+1)*x), r), s)
	var t float64
	if s <= smallTail {
		t = 1
		for i := 0; i < j; i++ {
			t *= float64(s-i) / float64(i+1) * x
		}
		for i := j; i < s; i++ {
			t *= 1 - x
		}
	} else {
		ls, _ := math.Lgamma(float64(s + 1))
		lj, _ := math.Lgamma(float64(j + 1))
		lr, _ := math.Lgamma(float64(s - j + 1))
		t = math.Exp(ls - lj - lr + float64(j)*math.Log(x) + float64(s-j)*math.Log1p(-x))
	}
	odds := x / (1 - x)
	sum := t
	for i, ti := j, t; i < s && ti > 0; i++ {
		ti *= float64(s-i) / float64(i+1) * odds
		sum += ti
	}
	for i, ti := j, t; i > r && ti > 0; i-- {
		ti *= float64(i) / float64(s-i+1) / odds
		sum += ti
	}
	return min(sum, 1)
}

// clamp01 keeps a probability that rounding pushed past [0, 1] inside it.
//
//consensus:hotpath
func clamp01(p float64) float64 {
	return min(max(p, 0), 1)
}
