package exact

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/rules"
)

func TestBinomialPMFSumsAndMean(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{0, 0.3}, {1, 0.5}, {10, 0.25}, {100, 0.9}, {1000, 0.01}} {
		pmf := BinomialPMF(tc.n, tc.p)
		var sum, mean float64
		for k, v := range pmf {
			if v < 0 {
				t.Fatalf("n=%d p=%v: negative mass at %d", tc.n, tc.p, k)
			}
			sum += v
			mean += float64(k) * v
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("n=%d p=%v: pmf sums to %v", tc.n, tc.p, sum)
		}
		if math.Abs(mean-float64(tc.n)*tc.p) > 1e-8 {
			t.Fatalf("n=%d p=%v: mean %v, want %v", tc.n, tc.p, mean, float64(tc.n)*tc.p)
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	pmf := BinomialPMF(5, 0)
	if pmf[0] != 1 {
		t.Fatal("p=0 must be a point mass at 0")
	}
	pmf = BinomialPMF(5, 1)
	if pmf[5] != 1 {
		t.Fatal("p=1 must be a point mass at n")
	}
	assertPanics(t, "negative n", func() { BinomialPMF(-1, 0.5) })
	assertPanics(t, "bad p", func() { BinomialPMF(3, 1.5) })
}

func TestBinomialPMFProperty(t *testing.T) {
	// Normalisation for arbitrary (n, p).
	f := func(n8 uint8, praw uint16) bool {
		n := int(n8%64) + 1
		p := float64(praw) / math.MaxUint16
		pmf := BinomialPMF(n, p)
		var sum float64
		for _, v := range pmf {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveAddsBinomials(t *testing.T) {
	// Bin(4, p) + Bin(6, p) = Bin(10, p).
	const p = 0.37
	got := Convolve(BinomialPMF(4, p), BinomialPMF(6, p))
	want := BinomialPMF(10, p)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-12 {
			t.Fatalf("mass at %d: %v, want %v", k, got[k], want[k])
		}
	}
}

func TestChainRowsStochasticAndAbsorbing(t *testing.T) {
	c := NewChain(40)
	for i, row := range c.P {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if c.P[0][0] != 1 || c.P[40][40] != 1 {
		t.Fatal("states 0 and n must be absorbing")
	}
	if !c.Absorbing(0) || !c.Absorbing(40) || c.Absorbing(20) {
		t.Fatal("Absorbing() wrong")
	}
}

func TestChainSymmetry(t *testing.T) {
	// Swapping bin labels maps state i to n−i: P[i][j] = P[n−i][n−j].
	c := NewChain(30)
	n := c.N
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			if d := math.Abs(c.P[i][j] - c.P[n-i][n-j]); d > 1e-10 {
				t.Fatalf("P[%d][%d] vs P[%d][%d] differ by %v", i, j, n-i, n-j, d)
			}
		}
	}
}

func TestWinProbabilities(t *testing.T) {
	c := NewChain(50)
	h := c.WinProbabilities()
	if h[0] != 0 || h[50] != 1 {
		t.Fatal("boundary win probabilities wrong")
	}
	for i := 0; i <= 50; i++ {
		if math.Abs(h[i]+h[50-i]-1) > 1e-8 {
			t.Fatalf("h[%d] + h[%d] = %v, want 1", i, 50-i, h[i]+h[50-i])
		}
		if i > 0 && h[i] < h[i-1]-1e-10 {
			t.Fatalf("win probability not monotone at %d", i)
		}
	}
	if math.Abs(h[25]-0.5) > 1e-8 {
		t.Fatalf("h[n/2] = %v, want 0.5", h[25])
	}
}

func TestAbsorptionTimesLinearSystemResidual(t *testing.T) {
	// The returned t must satisfy t[i] = 1 + Σ_j P[i][j]·t[j] on the
	// transient states (t vanishes on the absorbing ones).
	c := NewChain(35)
	tt := c.AbsorptionTimes()
	for i := 1; i < c.N; i++ {
		var rhs float64 = 1
		for j := 1; j < c.N; j++ {
			rhs += c.P[i][j] * tt[j]
		}
		if math.Abs(tt[i]-rhs) > 1e-7 {
			t.Fatalf("residual at %d: t=%v, rhs=%v", i, tt[i], rhs)
		}
	}
	// Symmetry.
	for i := 0; i <= c.N; i++ {
		if math.Abs(tt[i]-tt[c.N-i]) > 1e-7 {
			t.Fatalf("t[%d] != t[%d]", i, c.N-i)
		}
	}
}

// twoBinRun runs the Section 3 two-bin process on the count engine: start
// balls at value 1 and n−start at value 2 under the median rule.
func twoBinRun(n, start int64, seed uint64) core.Result {
	d := assign.Dist{Vals: []model.Value{1, 2}, Counts: []int64{start, n - start}}
	return core.NewCountEngineDist(d, rules.Median{}, nil, seed, core.Options{}).Run()
}

func TestExactMatchesCountEngine(t *testing.T) {
	// The count engine on two values must reproduce the exact expected
	// absorption time. This is the ground-truth cross-validation of its
	// binomial row round.
	const n, start, trials = 60, 30, 4000
	c := NewChain(n)
	want := c.AbsorptionTimes()[start]

	g := rng.NewXoshiro256(12345)
	var sum float64
	for k := 0; k < trials; k++ {
		sum += float64(twoBinRun(n, start, g.Uint64()).Rounds)
	}
	got := sum / trials
	// Standard error of the mean is ≈ sd/√trials; absorption times at
	// n=60 have sd of a few rounds, so 4000 trials give ±0.15 at 3σ.
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("Monte-Carlo mean %0.3f vs exact %0.3f", got, want)
	}
	t.Logf("exact %0.4f, monte-carlo %0.4f over %d trials", want, got, trials)
}

func TestExactWinProbabilityMatchesCountEngine(t *testing.T) {
	const n, start, trials = 40, 18, 4000
	c := NewChain(n)
	want := c.WinProbabilities()[start]

	g := rng.NewXoshiro256(999)
	wins := 0
	for k := 0; k < trials; k++ {
		if twoBinRun(n, start, g.Uint64()).Winner == 1 {
			wins++
		}
	}
	got := float64(wins) / trials
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("Monte-Carlo win rate %0.3f vs exact %0.3f", got, want)
	}
	t.Logf("exact %0.4f, monte-carlo %0.4f", want, got)
}

func TestAbsorptionCDF(t *testing.T) {
	c := NewChain(30)
	cdf := c.AbsorptionCDF(15, 400)
	if cdf[0] != 0 {
		t.Fatal("transient start cannot be absorbed at round 0")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-12 {
			t.Fatalf("CDF decreases at %d", i)
		}
	}
	if last := cdf[len(cdf)-1]; last < 0.999999 {
		t.Fatalf("CDF reaches only %v after 400 rounds", last)
	}
	// The exact mean lies where the CDF says it should: mean = Σ(1−F).
	var mean float64
	for _, f := range cdf {
		mean += 1 - f
	}
	want := c.AbsorptionTimes()[15]
	if math.Abs(mean-want) > 1e-3 {
		t.Fatalf("CDF-derived mean %v vs linear-algebra mean %v", mean, want)
	}
}

func TestDriftProbabilityShape(t *testing.T) {
	// Lemma 15: Pr[Δ' ≥ (4/3)Δ] ≥ 1 − exp(−Θ(Δ²/n)), so the exact drift
	// probability must increase towards 1 as Δ grows.
	// Lemma 15's regime is c√n ≤ Δ ≤ n/3 with δ = Δ/n small: the exact
	// one-round growth factor is (3/2 − 2δ²), so the margin over 4/3
	// thins as δ grows — we probe δ ≤ 0.15 where the lemma's bound bites.
	c := NewChain(400)
	n := c.N
	var prev float64
	for _, delta := range []int{10, 20, 40, 60} {
		p := c.DriftProbability(n/2-delta, 4.0/3)
		if p < prev-0.05 {
			t.Fatalf("drift probability not increasing: Δ=%d gives %v after %v", delta, p, prev)
		}
		prev = p
	}
	if prev < 0.8 {
		t.Fatalf("drift probability at Δ=60, n=400 is %v; want > 0.8", prev)
	}
	// Near-balanced states must have drift probability bounded away
	// from 1 (the CLT regime).
	if p := c.DriftProbability(n/2-1, 4.0/3); p > 0.9 {
		t.Fatalf("drift probability at Δ=1 is %v; the balanced regime cannot be that deterministic", p)
	}
}

func TestStepConservesMass(t *testing.T) {
	c := NewChain(25)
	dist := make([]float64, c.N+1)
	dist[12] = 0.5
	dist[13] = 0.5
	for round := 0; round < 50; round++ {
		dist = c.Step(dist)
		var sum float64
		for _, v := range dist {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("round %d: mass %v", round, sum)
		}
	}
}

func TestStayDefectProbs(t *testing.T) {
	if StayProb(0) != 0 || StayProb(1) != 1 {
		t.Fatal("StayProb boundaries")
	}
	if DefectProb(0) != 0 || DefectProb(1) != 1 {
		t.Fatal("DefectProb boundaries")
	}
	// At p = 1/2: stay = 3/4, defect = 1/4 (the Section 3 case analysis).
	if math.Abs(StayProb(0.5)-0.75) > 1e-15 || math.Abs(DefectProb(0.5)-0.25) > 1e-15 {
		t.Fatal("p=1/2 probabilities wrong")
	}
}

func TestChainPanics(t *testing.T) {
	assertPanics(t, "n=0", func() { NewChain(0) })
	c := NewChain(5)
	assertPanics(t, "bad dist", func() { c.Step(make([]float64, 3)) })
	assertPanics(t, "bad start", func() { c.AbsorptionCDF(99, 5) })
	assertPanics(t, "negative maxRounds", func() { c.AbsorptionCDF(2, -1) })
}

// TestAbsorptionCDFBounded: with renormalized transition rows and the
// clamped absorbed mass, even a propagation far past convergence — where
// absorbed mass is re-multiplied by its row thousands of times — must
// never report a CDF above 1.
func TestAbsorptionCDFBounded(t *testing.T) {
	c := NewChain(120)
	cdf := c.AbsorptionCDF(60, 3000)
	for i, f := range cdf {
		if f > 1 {
			t.Fatalf("CDF exceeds 1 at round %d: %v (by %g)", i, f, f-1)
		}
		if f < 0 {
			t.Fatalf("CDF negative at round %d: %v", i, f)
		}
	}
	if last := cdf[len(cdf)-1]; last < 1-1e-12 {
		t.Fatalf("CDF should have converged to 1, got %v", last)
	}
}

// TestRowsRenormalized: NewChain renormalizes each row to sum to 1 up to
// an ulp — the property AbsorptionCDFBounded relies on. Without the
// renormalization, raw BinomialPMF+Convolve rows carry O(n·ε) error that
// compounds across propagated rounds.
func TestRowsRenormalized(t *testing.T) {
	c := NewChain(97)
	for i, row := range c.P {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-15 {
			t.Fatalf("row %d sums to %v after renormalization", i, sum)
		}
	}
}

// TestSolveDegeneratePivotPanics: a poisoned (NaN) system must fail loudly
// in the solver, not propagate NaN into every returned expectation.
// math.Abs(NaN) compares false against any threshold, so the pre-fix code
// passed NaN pivots straight into the division.
func TestSolveDegeneratePivotPanics(t *testing.T) {
	a := newAugmented(NewChain(6), func(i int) []float64 { return []float64{1} })
	a[2][3] = math.NaN()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on NaN pivot")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "exact:") {
			t.Fatalf("panic %v lacks the exact: prefix", r)
		}
	}()
	Solve(a, 5, 1)
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func BenchmarkNewChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewChain(200)
	}
}

func BenchmarkAbsorptionTimes(b *testing.B) {
	c := NewChain(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AbsorptionTimes()
	}
}
