// Package exact computes the two-bin median dynamics *exactly* as a
// finite Markov chain, providing ground truth against which the
// Monte-Carlo engines are cross-validated.
//
// Section 3 of the paper reduces the two-bin case to the chain
//
//	L_{t+1} ~ Bin(L_t, 1−(1−p)²) + Bin(n−L_t, p²),   p = L_t/n,
//
// on the state space {0, …, n}: a ball in the left bin stays when it does
// not sample two right-bin balls, and a right-bin ball defects when it
// samples two left-bin balls. States 0 and n are absorbing (the stable
// consensus fixed points of Section 2.1).
//
// For populations up to a few hundred balls the full transition matrix is
// small enough to build densely, so absorption probabilities and expected
// absorption times come from direct linear algebra rather than simulation.
// The package is used three ways:
//
//   - to validate the count engine's binomial round on two values (its
//     empirical absorption times must match the exact expectation),
//   - to validate Lemma 12/15-style drift claims at small n where "w.h.p."
//     statements can be checked against exact probabilities, and
//   - to report exact expected convergence times (the "exact" spec kind).
//
// Everything is stdlib-only float64 dense linear algebra; n ≤ ~400 keeps
// the O(n³) solves well under a second. Solve, its pivot-checked Gaussian
// solver, also solves internal/markov's absorbing-chain systems.
package exact

import (
	"fmt"
	"math"
)

// BinomialPMF returns the probability mass function of Bin(n, p) as a
// vector of length n+1. It is computed in log space (math.Lgamma) so that
// n in the thousands stays accurate.
func BinomialPMF(n int, p float64) []float64 {
	if n < 0 {
		panic("exact: negative n")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("exact: p = %v outside [0,1]", p))
	}
	pmf := make([]float64, n+1)
	switch {
	case p == 0:
		pmf[0] = 1
		return pmf
	case p == 1:
		pmf[n] = 1
		return pmf
	}
	logP, logQ := math.Log(p), math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n + 1))
	for k := 0; k <= n; k++ {
		lgK, _ := math.Lgamma(float64(k + 1))
		lgNK, _ := math.Lgamma(float64(n - k + 1))
		pmf[k] = math.Exp(lgN - lgK - lgNK + float64(k)*logP + float64(n-k)*logQ)
	}
	return pmf
}

// Convolve returns the distribution of X+Y for independent X ~ a, Y ~ b
// given as PMF vectors.
func Convolve(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			out[i+j] += pa * pb
		}
	}
	return out
}

// StayProb is the probability that a left-bin ball stays left when the
// left bin holds fraction p of the balls: 1 − (1−p)².
func StayProb(p float64) float64 { q := 1 - p; return 1 - q*q }

// DefectProb is the probability that a right-bin ball moves left: p².
func DefectProb(p float64) float64 { return p * p }

// Chain is the exact two-bin median chain for a fixed population size.
type Chain struct {
	// N is the population size.
	N int
	// P is the (N+1)×(N+1) row-stochastic transition matrix:
	// P[i][j] = Pr[L_{t+1} = j | L_t = i].
	P [][]float64
}

// NewChain builds the exact chain for n balls. Every transition row is
// renormalized to sum to exactly the float64-rounded 1: BinomialPMF and
// Convolve each leave O(n·ε) rounding error in a row, and AbsorptionCDF
// compounds row error across propagated rounds — without the
// renormalization a long propagation can push the absorbed mass (a CDF)
// above 1.
func NewChain(n int) *Chain {
	if n < 1 {
		panic("exact: n must be >= 1")
	}
	P := make([][]float64, n+1)
	for i := 0; i <= n; i++ {
		p := float64(i) / float64(n)
		stay := BinomialPMF(i, StayProb(p))
		defect := BinomialPMF(n-i, DefectProb(p))
		row := Convolve(stay, defect) // length n+1
		var sum float64
		for _, v := range row {
			sum += v
		}
		if sum > 0 && sum != 1 {
			inv := 1 / sum
			for j := range row {
				row[j] *= inv
			}
		}
		P[i] = row
	}
	return &Chain{N: n, P: P}
}

// Absorbing reports whether state i is absorbing (full consensus).
func (c *Chain) Absorbing(i int) bool { return i == 0 || i == c.N }

// Step propagates a distribution over states one round: out = dist · P.
// It allocates the output; propagation loops should ping-pong two buffers
// through StepInto instead.
func (c *Chain) Step(dist []float64) []float64 {
	out := make([]float64, c.N+1)
	c.StepInto(dist, out)
	return out
}

// StepInto propagates a distribution one round into out (out = dist · P),
// reusing out's storage — the allocation-free form of Step for per-round
// propagation loops. Both slices must have length N+1; out is overwritten
// and must not alias dist.
//
//consensus:hotpath
func (c *Chain) StepInto(dist, out []float64) {
	if len(dist) != c.N+1 || len(out) != c.N+1 {
		panic("exact: distribution has wrong length")
	}
	clear(out)
	for i, di := range dist {
		if di == 0 {
			continue
		}
		row := c.P[i]
		for j, pij := range row {
			out[j] += di * pij
		}
	}
}

// AbsorptionTimes returns t[i] = E[rounds until absorption | L_0 = i],
// the exact expected convergence time of the two-bin median rule. It
// solves (I − Q)t = 1 over the transient states by Gaussian elimination
// with partial pivoting.
func (c *Chain) AbsorptionTimes() []float64 {
	n := c.N
	m := n - 1 // transient states 1..n-1
	if m <= 0 {
		return make([]float64, n+1)
	}
	a := newAugmented(c, func(i int) []float64 { return []float64{1} })
	sol := Solve(a, m, 1)
	t := make([]float64, n+1)
	for i := 1; i < n; i++ {
		t[i] = sol[i-1][0]
	}
	return t
}

// WinProbabilities returns h[i] = Pr[absorbed at N | L_0 = i]: the exact
// probability that the left value wins from i supporters. h[0] = 0,
// h[N] = 1, and by the symmetry of the dynamics h[i] + h[N−i] = 1.
func (c *Chain) WinProbabilities() []float64 {
	n := c.N
	m := n - 1
	h := make([]float64, n+1)
	h[n] = 1
	if m <= 0 {
		return h
	}
	a := newAugmented(c, func(i int) []float64 { return []float64{c.P[i][n]} })
	sol := Solve(a, m, 1)
	for i := 1; i < n; i++ {
		h[i] = sol[i-1][0]
	}
	return h
}

// AbsorptionCDF returns F[t] = Pr[absorbed by round t | L_0 = start] for
// t = 0..maxRounds, computed by exact distribution propagation reusing two
// ping-pong buffers (no per-round allocation). maxRounds must be >= 0 —
// the result always includes the round-0 entry — and a negative value
// panics with a clear message instead of reaching make with a bogus size.
// Transition rows are renormalized at construction and the absorbed mass
// is clamped, so accumulated float error can never report a CDF above 1.
func (c *Chain) AbsorptionCDF(start, maxRounds int) []float64 {
	if start < 0 || start > c.N {
		panic("exact: start out of range")
	}
	if maxRounds < 0 {
		panic(fmt.Sprintf("exact: negative maxRounds %d in AbsorptionCDF", maxRounds))
	}
	dist := make([]float64, c.N+1)
	next := make([]float64, c.N+1)
	dist[start] = 1
	cdf := make([]float64, maxRounds+1)
	cdf[0] = absorbedMass(dist, c.N)
	for t := 1; t <= maxRounds; t++ {
		c.StepInto(dist, next)
		dist, next = next, dist
		cdf[t] = absorbedMass(dist, c.N)
	}
	return cdf
}

// absorbedMass is the probability mass on the two absorbing states,
// clamped to 1 — it is a CDF value, and clamping caps the residual float
// error the row renormalization cannot remove (mass already absorbed is
// re-multiplied by its row every round).
func absorbedMass(dist []float64, n int) float64 {
	if m := dist[0] + dist[n]; m < 1 {
		return m
	}
	return 1
}

// DriftProbability returns Pr[Δ_{t+1} ≥ factor·Δ_t | L_t = i] exactly,
// where Δ is the imbalance (Y−X)/2 of Section 3 — the quantity Lemma 15
// bounds below by 1 − exp(−Θ(Δ²/n)) for factor 4/3.
func (c *Chain) DriftProbability(i int, factor float64) float64 {
	n := c.N
	delta := math.Abs(float64(n)/2 - float64(i))
	target := factor * delta
	var sum float64
	for j, pij := range c.P[i] {
		if math.Abs(float64(n)/2-float64(j)) >= target {
			sum += pij
		}
	}
	return sum
}

// --- dense linear algebra ---------------------------------------------------

// newAugmented builds the m×(m+k) system (I − Q | B) over the transient
// states 1..n−1, where row i of B is rhs(i).
func newAugmented(c *Chain, rhs func(i int) []float64) [][]float64 {
	n := c.N
	m := n - 1
	k := len(rhs(1))
	a := make([][]float64, m)
	for r := 0; r < m; r++ {
		i := r + 1
		row := make([]float64, m+k)
		for cIdx := 0; cIdx < m; cIdx++ {
			j := cIdx + 1
			row[cIdx] = -c.P[i][j]
			if i == j {
				row[cIdx] += 1
			}
		}
		copy(row[m:], rhs(i))
		a[r] = row
	}
	return a
}

// minPivot is the degenerate-pivot threshold of the Gaussian solver. The
// systems solved here are I − Q with O(1) entries, so after partial
// pivoting any honest pivot is far above it; a pivot below (or a NaN from
// poisoned input) means the system is singular, and dividing by it would
// silently turn every returned expectation into ±Inf or NaN.
const minPivot = 1e-12

// Solve runs Gaussian elimination with partial pivoting on the m×(m+k)
// augmented matrix [A | B], overwriting it, and returns the k solution
// columns per row of A·X = B. It panics on a degenerate pivot (see
// eliminate) rather than returning NaNs.
func Solve(a [][]float64, m, k int) [][]float64 {
	eliminate(a, m, k)
	// Back substitution.
	sol := make([][]float64, m)
	for r := m - 1; r >= 0; r-- {
		row := make([]float64, k)
		for kk := 0; kk < k; kk++ {
			v := a[r][m+kk]
			for j := r + 1; j < m; j++ {
				v -= a[r][j] * sol[j][kk]
			}
			row[kk] = v / a[r][r]
		}
		sol[r] = row
	}
	return sol
}

// eliminate runs the in-place forward-elimination pass with partial
// pivoting over the m×(m+k) augmented matrix — the O(m³) hot path of every
// analytic solve. A zero, denormal or NaN pivot panics immediately: the
// division below would otherwise propagate garbage into the returned
// expectations without any error surfacing.
//
//consensus:hotpath
func eliminate(a [][]float64, m, k int) {
	for col := 0; col < m; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		pv := math.Abs(a[piv][col])
		if math.IsNaN(pv) || pv < minPivot {
			panic("exact: degenerate pivot in linear solve — singular or NaN system (an absorbing transient state, or an unreachable target?)")
		}
		a[col], a[piv] = a[piv], a[col]
		// Eliminate below.
		inv := 1 / a[col][col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < m+k; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
}
