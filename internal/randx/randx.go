// Package randx implements the non-uniform random variates needed by the
// count-level simulation engines: exact binomial sampling, geometric and
// multinomial variates, Walker's alias method for sampling from an
// arbitrary discrete distribution in O(1) per draw, and the transition-row
// round (Rows) both count engines use to move every value's balls with one
// multinomial per round.
//
// Why this exists. The per-ball engine in internal/core costs Θ(n) random
// index pairs per round. For the paper's two-bin analysis (Section 3) the
// state is fully described by a single count L_t, and the round update is
//
//	L_{t+1} ~ Binomial(L_t, 1-(1-p)^2) + Binomial(n-L_t, p^2),  p = L_t/n,
//
// so one round costs two binomial draws regardless of n. That lets the
// lower-bound experiments (balancing adversary, Theorem 10 tightness) run at
// n = 10^9 and beyond. Rows generalizes the same update to k values and any
// rule: one multinomial per live value over its exact transition row. Exactness matters: the experiments measure tail
// events (Lemmas 14, 15), so a normal approximation to the binomial would
// bias exactly the quantity under study. We therefore implement
//
//   - inversion by sequential search for n·min(p,1-p) below a threshold, and
//   - the BTRS transformed-rejection sampler of Hörmann (1993) otherwise,
//
// both of which are exact (they sample the true binomial pmf).
package randx

import (
	"math"

	"repro/internal/rng"
)

// btrsThreshold is the n*p value above which Binomial switches from
// inversion to the BTRS rejection sampler. Hörmann recommends ~10; inversion
// costs Θ(np) expected steps, BTRS costs O(1) with moderate constants.
const btrsThreshold = 10

// Binomial returns an exact sample from Binomial(n, p) using g as the
// randomness source. It panics if p is outside [0, 1] or n < 0.
//
//consensus:hotpath
func Binomial(g *rng.Xoshiro256, n int64, p float64) int64 {
	if n < 0 {
		panic("randx: Binomial with n < 0")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic("randx: Binomial with p outside [0,1]")
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	// Exploit symmetry so the worked-with probability is ≤ 1/2; this keeps
	// inversion fast and BTRS in its valid regime.
	if p > 0.5 {
		return n - Binomial(g, n, 1-p)
	}
	if float64(n)*p < btrsThreshold {
		return binomialInversion(g, n, p)
	}
	return binomialBTRS(g, n, p)
}

// binomialInversion samples Binomial(n,p) by inverting the CDF with
// sequential search from 0. Expected work is O(np + 1). Exact.
//
//consensus:hotpath
func binomialInversion(g *rng.Xoshiro256, n int64, p float64) int64 {
	q := 1 - p
	// s = Pr[X = 0] = q^n, computed in log space for robustness at large n.
	logq := math.Log1p(-p)
	s := math.Exp(float64(n) * logq)
	if s == 0 {
		// Underflow can only occur when np is large, which the caller
		// routes to BTRS; guard anyway by a q-ratio random walk start.
		s = math.SmallestNonzeroFloat64
	}
	for {
		u := g.Float64()
		cum := s
		pk := s
		var k int64
		for u > cum && k < n {
			// pmf ratio: Pr[k+1]/Pr[k] = (n-k)/(k+1) * p/q
			pk *= float64(n-k) / float64(k+1) * (p / q)
			cum += pk
			k++
		}
		if u <= cum || k == n {
			return k
		}
		// Numerical leakage (u beyond accumulated mass): redraw.
	}
}

// binomialBTRS samples Binomial(n,p) for p ≤ 1/2 and np ≥ 10 using the
// transformed rejection method with squeeze (BTRS) of W. Hörmann,
// "The generation of binomial random variates", JSCS 46 (1993).
//
//consensus:hotpath
func binomialBTRS(g *rng.Xoshiro256, n int64, p float64) int64 {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)

	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b

	// The full acceptance test's constants cost four logarithms; most
	// draws pass the squeeze first, so they are computed on first use.
	var alpha, lpq, m, h float64
	for {
		u := g.Float64() - 0.5
		v := g.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		// Squeeze: accept quickly in the central region.
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if alpha == 0 {
			alpha = (2.83 + 5.1/b) * spq
			lpq = math.Log(p / q)
			m = math.Floor(float64(n+1) * p) // mode
			h = logFactorial(int64(m)) + logFactorial(n-int64(m))
		}
		// Full acceptance test in log space.
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-logFactorial(int64(k))-logFactorial(n-int64(k))+(k-m)*lpq {
			return int64(k)
		}
	}
}

// logFactorial returns ln(k!) using exact precomputation for small k and
// Stirling's series otherwise. Accuracy is ~1e-12 relative, far below the
// rejection test's needs.
//
//consensus:hotpath
func logFactorial(k int64) float64 {
	if k < 0 {
		panic("randx: logFactorial of negative")
	}
	if k < int64(len(logFactTable)) {
		return logFactTable[k]
	}
	x := float64(k + 1)
	// Stirling: lnΓ(x) = (x-.5)ln x - x + .5 ln(2π) + 1/(12x) - 1/(360x^3)...
	return (x-0.5)*math.Log(x) - x + 0.5*math.Log(2*math.Pi) +
		1/(12*x) - 1/(360*x*x*x)
}

var logFactTable = func() [128]float64 {
	var t [128]float64
	acc := 0.0
	for i := 2; i < len(t); i++ {
		acc += math.Log(float64(i))
		t[i] = acc
	}
	return t
}()

// Geometric returns a sample from the geometric distribution on {1, 2, ...}
// with success probability p, i.e. Pr[X = k] = (1-p)^(k-1) p — the
// distribution in the paper's Lemma 6. Sampled by inversion:
// X = ceil(ln U / ln(1-p)).
//
//consensus:hotpath
func Geometric(g *rng.Xoshiro256, p float64) int64 {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		panic("randx: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 1
	}
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	k := math.Ceil(math.Log(u) / math.Log1p(-p))
	if k < 1 {
		k = 1
	}
	return int64(k)
}

// Multinomial distributes n trials over the probability vector probs using
// the conditional-binomial decomposition, writing counts into out (which
// must have len(probs)). The draw is exact. probs need not be normalised;
// only ratios matter.
//
//consensus:hotpath
func Multinomial(g *rng.Xoshiro256, n int64, probs []float64, out []int64) {
	if len(out) != len(probs) {
		panic("randx: Multinomial out length mismatch")
	}
	total := 0.0
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) {
			panic("randx: Multinomial with negative probability")
		}
		total += p
	}
	if total <= 0 {
		panic("randx: Multinomial with zero total mass")
	}
	remaining := n
	remMass := total
	for i := 0; i < len(probs)-1; i++ {
		if remaining == 0 {
			out[i] = 0
			continue
		}
		p := probs[i] / remMass
		if p > 1 {
			p = 1
		}
		c := Binomial(g, remaining, p)
		out[i] = c
		remaining -= c
		remMass -= probs[i]
		if remMass <= 0 {
			// Numerical exhaustion: dump the rest in the next bucket.
			remMass = math.SmallestNonzeroFloat64
		}
	}
	out[len(probs)-1] = remaining
}

// Alias is Walker's alias table for O(1) sampling from a fixed discrete
// distribution. Build is O(k) for k outcomes. The zero value is ready for
// Rebuild; the table owns reusable scratch buffers so engines that rebuild
// it every round (the count engines' hot loop) allocate nothing once the
// buffers have grown to the working support size.
type Alias struct {
	prob  []float64 // acceptance probability per column
	alias []int32   // alternative outcome per column

	// Rebuild scratch, retained across calls.
	scaled []float64
	small  []int32
	large  []int32
}

// NewAlias builds an alias table from non-negative weights. At least one
// weight must be positive.
func NewAlias(weights []float64) *Alias {
	a := &Alias{}
	a.Rebuild(weights)
	return a
}

// Rebuild re-initializes the table in place from non-negative weights,
// reusing its internal buffers: after the first call with the largest
// support, subsequent rebuilds are allocation-free. At least one weight
// must be positive.
//
//consensus:hotpath
func (a *Alias) Rebuild(weights []float64) {
	k := len(weights)
	if k == 0 {
		panic("randx: NewAlias with no outcomes")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("randx: NewAlias with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("randx: NewAlias with zero total weight")
	}
	a.prob = growFloats(a.prob, k)
	a.alias = growInts(a.alias, k)
	// Scaled probabilities; columns with scaled < 1 are "small".
	scaled := growFloats(a.scaled, k)
	small := a.small[:0]
	large := a.large[:0]
	for i, w := range weights {
		scaled[i] = w / total * float64(k)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		a.prob[l] = 1
		a.alias[l] = l
	}
	for _, s := range small {
		// Can occur only via floating-point residue; treat as full column.
		a.prob[s] = 1
		a.alias[s] = s
	}
	a.scaled, a.small, a.large = scaled, small[:0], large[:0]
}

// growFloats returns a slice of length k, reusing buf's backing array when
// it is large enough.
//
//consensus:hotpath
func growFloats(buf []float64, k int) []float64 {
	if cap(buf) >= k {
		return buf[:k]
	}
	return make([]float64, k)
}

// growInts is growFloats for int32 slices.
//
//consensus:hotpath
func growInts(buf []int32, k int) []int32 {
	if cap(buf) >= k {
		return buf[:k]
	}
	return make([]int32, k)
}

// Draw returns an outcome index distributed per the table's weights.
//
//consensus:hotpath
func (a *Alias) Draw(g *rng.Xoshiro256) int {
	col := g.Intn(len(a.prob))
	if g.Float64() < a.prob[col] {
		return col
	}
	return int(a.alias[col])
}

// K returns the number of outcomes in the table.
func (a *Alias) K() int { return len(a.prob) }

// Hypergeometric samples the number of marked items in a draw of k items
// without replacement from a population of size n containing marked marked
// items. It is used by adversary budget-splitting across bins. The
// implementation is exact via inversion for small k and via the
// conditional-binomial-style recursion otherwise.
//
//consensus:hotpath
func Hypergeometric(g *rng.Xoshiro256, n, marked, k int64) int64 {
	if marked < 0 || k < 0 || n < 0 || marked > n || k > n {
		panic("randx: Hypergeometric with invalid parameters")
	}
	if k == 0 || marked == 0 {
		return 0
	}
	if marked == n {
		return k
	}
	// Symmetry reductions keep the loop short.
	if k > n/2 {
		// Drawing k is the complement of leaving n-k.
		return marked - Hypergeometric(g, n, marked, n-k)
	}
	// Sequential sampling: draw k items one at a time. O(k) exact.
	got := int64(0)
	remMarked := marked
	remTotal := n
	for i := int64(0); i < k; i++ {
		if g.Float64() < float64(remMarked)/float64(remTotal) {
			got++
			remMarked--
			if remMarked == 0 {
				break
			}
		}
		remTotal--
	}
	return got
}
