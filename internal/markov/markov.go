// Package markov implements the absorbing-Markov-chain machinery of the
// paper's Section 2.3 (Lemmas 8 and 9): multiplicative-growth chains with
// exponentially reliable progress, their simulation, and exact expected
// hitting times via linear algebra for cross-validation.
//
// The paper uses these chains to convert "the imbalance grows by a constant
// factor except with probability exp(−Θ(X_t))" statements into O(log m)
// hitting-time bounds. We reproduce that reasoning empirically:
//
//   - GrowthChain models exactly the Lemma 8 hypotheses: from state x > 0
//     move to min(m, ⌈c1·x⌉) with probability ≥ 1 − e^{−c2·x}, otherwise
//     fall back (to 0, the worst case allowed); from 0, move to 1 with
//     probability c3.
//   - HittingTime measures the time to reach a target state by simulation.
//   - ExpectedHitting solves the exact first-passage linear system
//     (I − Q)·h = 1 by Gaussian elimination (exact.Solve), giving analytic
//     reference values for the simulated chains.
package markov

import (
	"math"

	"repro/internal/exact"
	"repro/internal/rng"
)

// Chain is a time-homogeneous Markov chain on {0, …, m}.
type Chain interface {
	// M returns the top state m.
	M() int
	// Next samples the successor of state x using g.
	Next(x int, g *rng.Xoshiro256) int
}

// GrowthChain is the Lemma 8 chain. From x ≥ 1: with probability
// 1 − e^{−C2·x} move to min(m, ⌈C1·x⌉); otherwise fall to 0. From 0: with
// probability C3 move to 1, else stay.
type GrowthChain struct {
	// C1 > 1 is the growth factor, C2 > 0 the reliability exponent,
	// C3 ∈ (0, 1] the restart probability.
	C1, C2, C3 float64
	// Top is the ceiling state m.
	Top int
}

// NewGrowthChain validates and returns a GrowthChain.
func NewGrowthChain(c1, c2, c3 float64, m int) *GrowthChain {
	if c1 <= 1 || c2 <= 0 || c3 <= 0 || c3 > 1 || m < 1 {
		panic("markov: invalid GrowthChain parameters")
	}
	return &GrowthChain{C1: c1, C2: c2, C3: c3, Top: m}
}

// M implements Chain.
func (c *GrowthChain) M() int { return c.Top }

// Next implements Chain.
func (c *GrowthChain) Next(x int, g *rng.Xoshiro256) int {
	if x < 0 || x > c.Top {
		panic("markov: state out of range")
	}
	if x == 0 {
		if g.Float64() < c.C3 {
			return 1
		}
		return 0
	}
	if g.Float64() < 1-math.Exp(-c.C2*float64(x)) {
		nx := int(math.Ceil(c.C1 * float64(x)))
		if nx > c.Top {
			nx = c.Top
		}
		return nx
	}
	return 0
}

// AbsorbingGrowthChain is the Lemma 9 variant: states 0 and m are absorbing;
// interior states grow like GrowthChain but fall to 0 on failure.
type AbsorbingGrowthChain struct {
	GrowthChain
}

// NewAbsorbingGrowthChain validates and returns the Lemma 9 chain.
func NewAbsorbingGrowthChain(c1, c2 float64, m int) *AbsorbingGrowthChain {
	if c1 <= 1 || c2 <= 0 || m < 1 {
		panic("markov: invalid AbsorbingGrowthChain parameters")
	}
	return &AbsorbingGrowthChain{GrowthChain{C1: c1, C2: c2, C3: 1, Top: m}}
}

// Next implements Chain with 0 and Top absorbing.
func (c *AbsorbingGrowthChain) Next(x int, g *rng.Xoshiro256) int {
	if x == 0 || x == c.Top {
		return x
	}
	return c.GrowthChain.Next(x, g)
}

// HittingTime simulates the chain from state start until it reaches a state
// >= target (or an absorbing state for Lemma 9 chains), returning the number
// of steps taken, capped at maxSteps.
func HittingTime(c Chain, start, target, maxSteps int, g *rng.Xoshiro256) int {
	x := start
	for t := 0; t < maxSteps; t++ {
		if x >= target {
			return t
		}
		nx := c.Next(x, g)
		if nx == x && isAbsorbing(c, x) && x < target {
			// Stuck in a low absorbing state: report the cap.
			return maxSteps
		}
		x = nx
	}
	if x >= target {
		return maxSteps
	}
	return maxSteps
}

func isAbsorbing(c Chain, x int) bool {
	if a, ok := c.(*AbsorbingGrowthChain); ok {
		return x == 0 || x == a.Top
	}
	return false
}

// MeanHittingTime runs trials independent simulations and returns the mean
// number of steps to reach target from start.
func MeanHittingTime(c Chain, start, target, maxSteps, trials int, g *rng.Xoshiro256) float64 {
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(HittingTime(c, start, target, maxSteps, g))
	}
	return sum / float64(trials)
}

// TransitionMatrix returns the dense (m+1)×(m+1) transition matrix of a
// GrowthChain (row = from, column = to). Useful for exact analysis of small
// chains.
func (c *GrowthChain) TransitionMatrix() [][]float64 {
	m := c.Top
	p := make([][]float64, m+1)
	for i := range p {
		p[i] = make([]float64, m+1)
	}
	p[0][1] = c.C3
	p[0][0] = 1 - c.C3
	for x := 1; x <= m; x++ {
		up := 1 - math.Exp(-c.C2*float64(x))
		nx := int(math.Ceil(c.C1 * float64(x)))
		if nx > m {
			nx = m
		}
		p[x][nx] += up
		p[x][0] += 1 - up
	}
	return p
}

// ExpectedHitting solves the exact expected first-passage times into the
// target set for the transition matrix p: h[i] = 0 for i ∈ targets, else
// h[i] = 1 + Σ_j p[i][j]·h[j]. The linear system (I − Q)h = 1 over the
// non-target states is solved by exact.Solve. Panics if the system is
// singular (target unreachable from some state with probability 1 leads to
// a singular or near-singular system).
func ExpectedHitting(p [][]float64, targets map[int]bool) []float64 {
	var idx []int
	for i := range p {
		if !targets[i] {
			idx = append(idx, i)
		}
	}
	sol := exact.Solve(augmented(p, idx, func(int) float64 { return 1 }), len(idx), 1)
	h := make([]float64, len(p))
	for r, i := range idx {
		h[i] = sol[r][0]
	}
	return h
}

// AbsorptionProbability computes, for each state, the probability of being
// absorbed in `good` rather than `bad` (both absorbing), by solving
// q[i] = Σ_j p[i][j]·q[j] with q[good] = 1, q[bad] = 0.
func AbsorptionProbability(p [][]float64, good, bad int) []float64 {
	var idx []int
	for i := range p {
		if i != good && i != bad {
			idx = append(idx, i)
		}
	}
	sol := exact.Solve(augmented(p, idx, func(i int) float64 { return p[i][good] }), len(idx), 1)
	q := make([]float64, len(p))
	q[good] = 1
	for r, i := range idx {
		q[i] = sol[r][0]
	}
	return q
}

// augmented builds the system [I − Q | b] over the states idx: Q is p
// restricted to idx and b[r] = rhs(idx[r]).
func augmented(p [][]float64, idx []int, rhs func(i int) float64) [][]float64 {
	k := len(idx)
	a := make([][]float64, k)
	for r, i := range idx {
		row := make([]float64, k+1)
		for c, j := range idx {
			row[c] = -p[i][j]
		}
		row[r]++
		row[k] = rhs(i)
		a[r] = row
	}
	return a
}
