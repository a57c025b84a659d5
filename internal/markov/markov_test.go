package markov

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestGrowthChainTransitions(t *testing.T) {
	c := NewGrowthChain(2, 1, 0.5, 100)
	g := rng.NewXoshiro256(1)
	// From a high state, growth is near-certain and lands at min(m, 2x).
	ups := 0
	for i := 0; i < 1000; i++ {
		if nx := c.Next(50, g); nx == 100 {
			ups++
		} else if nx != 0 {
			t.Fatalf("unexpected successor %d of 50", nx)
		}
	}
	if ups < 995 {
		t.Fatalf("growth from 50 succeeded only %d/1000 times", ups)
	}
	// From 0: ~C3 fraction moves to 1.
	ones := 0
	for i := 0; i < 10000; i++ {
		if nx := c.Next(0, g); nx == 1 {
			ones++
		} else if nx != 0 {
			t.Fatalf("unexpected successor %d of 0", nx)
		}
	}
	frac := float64(ones) / 10000
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("restart fraction %v, want ~0.5", frac)
	}
}

func TestGrowthChainPanics(t *testing.T) {
	bad := []func(){
		func() { NewGrowthChain(1, 1, 0.5, 10) },
		func() { NewGrowthChain(2, 0, 0.5, 10) },
		func() { NewGrowthChain(2, 1, 0, 10) },
		func() { NewGrowthChain(2, 1, 1.5, 10) },
		func() { NewGrowthChain(2, 1, 0.5, 0) },
		func() { NewGrowthChain(2, 1, 0.5, 10).Next(-1, rng.NewXoshiro256(1)) },
		func() { NewGrowthChain(2, 1, 0.5, 10).Next(11, rng.NewXoshiro256(1)) },
	}
	for i, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAbsorbingChainStaysAbsorbed(t *testing.T) {
	c := NewAbsorbingGrowthChain(2, 1, 64)
	g := rng.NewXoshiro256(2)
	for i := 0; i < 100; i++ {
		if c.Next(0, g) != 0 {
			t.Fatal("0 not absorbing")
		}
		if c.Next(64, g) != 64 {
			t.Fatal("top not absorbing")
		}
	}
}

// Lemma 8's conclusion: the hitting time of a high state is O(log m). Verify
// the log-m scaling empirically: hitting times for m and m² differ by about
// a factor 2 (not m).
func TestHittingTimeLogScaling(t *testing.T) {
	g := rng.NewXoshiro256(3)
	mean := func(m int) float64 {
		c := NewGrowthChain(2, 2, 0.7, m)
		return MeanHittingTime(c, 0, m, 100000, 400, g)
	}
	t64 := mean(64)
	t4096 := mean(4096)
	ratio := t4096 / t64
	// log scaling: ratio ≈ log(4096)/log(64) = 2. Linear scaling would be 64.
	if ratio > 4 {
		t.Fatalf("hitting time ratio %v suggests super-logarithmic growth (t64=%v t4096=%v)",
			ratio, t64, t4096)
	}
}

// Cross-validation: simulated mean hitting time matches the exact linear
// system solution for a small chain.
func TestHittingTimeMatchesExact(t *testing.T) {
	const m = 32
	c := NewGrowthChain(2, 1.0, 0.5, m)
	p := c.TransitionMatrix()
	h := ExpectedHitting(p, map[int]bool{m: true})
	g := rng.NewXoshiro256(4)
	var cnt stats.Counter
	for i := 0; i < 4000; i++ {
		cnt.Add(float64(HittingTime(c, 0, m, 1000000, g)))
	}
	want := h[0]
	got := cnt.Mean()
	if math.Abs(got-want) > 6*cnt.StdErr()+0.05 {
		t.Fatalf("simulated %v vs exact %v (se %v)", got, want, cnt.StdErr())
	}
}

func TestTransitionMatrixRowsSumToOne(t *testing.T) {
	c := NewGrowthChain(1.5, 0.8, 0.3, 20)
	p := c.TransitionMatrix()
	for i, row := range p {
		var sum float64
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative probability in row %d", i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestExpectedHittingSimpleChain(t *testing.T) {
	// Two-state chain: from 0, reach 1 with prob q each step. E[T] = 1/q.
	q := 0.25
	p := [][]float64{{1 - q, q}, {0, 1}}
	h := ExpectedHitting(p, map[int]bool{1: true})
	if math.Abs(h[0]-4) > 1e-9 || h[1] != 0 {
		t.Fatalf("h = %v, want [4 0]", h)
	}
}

func TestExpectedHittingBirthDeath(t *testing.T) {
	// Symmetric random walk on {0,1,2,3} with reflecting 0 and absorbing 3:
	// standard first-passage times h[i] from the classical theory. For a
	// reflecting-at-0 simple walk with absorption at n=3: h[i] = n² − i².
	p := [][]float64{
		{0, 1, 0, 0},
		{0.5, 0, 0.5, 0},
		{0, 0.5, 0, 0.5},
		{0, 0, 0, 1},
	}
	h := ExpectedHitting(p, map[int]bool{3: true})
	want := []float64{9, 8, 5, 0}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-9 {
			t.Fatalf("h = %v, want %v", h, want)
		}
	}
}

// assertDegeneratePivot runs f and requires the solver's degenerate-pivot
// panic.
func assertDegeneratePivot(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, "degenerate pivot") {
			t.Fatalf("panic %v, want the solver's degenerate-pivot panic", r)
		}
	}()
	f()
}

func TestExpectedHittingSingularPanics(t *testing.T) {
	// State 0 can never reach state 1.
	p := [][]float64{{1, 0}, {0, 1}}
	assertDegeneratePivot(t, func() { ExpectedHitting(p, map[int]bool{1: true}) })
}

// TestExpectedHittingNaNPanics: a NaN anywhere in the transition matrix
// must fail loudly in the solver instead of silently poisoning every
// returned hitting time — math.Abs(NaN) compares false against any pivot
// threshold, so a plain threshold check lets NaN pivots through.
func TestExpectedHittingNaNPanics(t *testing.T) {
	p := [][]float64{
		{0.5, 0.5, 0},
		{math.NaN(), 0, 1 - math.NaN()},
		{0, 0, 1},
	}
	assertDegeneratePivot(t, func() { ExpectedHitting(p, map[int]bool{2: true}) })
}

func TestAbsorptionProbabilityGamblersRuin(t *testing.T) {
	// Fair gambler's ruin on {0..4}: from i, P[absorb at 4] = i/4.
	n := 5
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
	}
	p[0][0] = 1
	p[4][4] = 1
	for i := 1; i < 4; i++ {
		p[i][i-1] = 0.5
		p[i][i+1] = 0.5
	}
	q := AbsorptionProbability(p, 4, 0)
	for i := 0; i < n; i++ {
		want := float64(i) / 4
		if math.Abs(q[i]-want) > 1e-9 {
			t.Fatalf("q = %v", q)
		}
	}
}

func TestAbsorptionProbabilityBiased(t *testing.T) {
	// Biased ruin p=2/3 up on {0..3}: q[i] = (1−(1/2)^i)/(1−(1/2)^3).
	n := 4
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
	}
	p[0][0] = 1
	p[3][3] = 1
	for i := 1; i < 3; i++ {
		p[i][i+1] = 2.0 / 3
		p[i][i-1] = 1.0 / 3
	}
	q := AbsorptionProbability(p, 3, 0)
	den := 1 - math.Pow(0.5, 3)
	for i := 0; i < n; i++ {
		want := (1 - math.Pow(0.5, float64(i))) / den
		if i == 0 {
			want = 0
		}
		if i == 3 {
			want = 1
		}
		if math.Abs(q[i]-want) > 1e-9 {
			t.Fatalf("q[%d] = %v want %v", i, q[i], want)
		}
	}
}

// The Lemma 9 dichotomy: the absorbing chain ends in {0, m} quickly; measure
// that after O(log m) steps the chain is absorbed with high frequency.
func TestLemma9Dichotomy(t *testing.T) {
	const m = 1024
	c := NewAbsorbingGrowthChain(2, 2, m)
	g := rng.NewXoshiro256(5)
	steps := 4 * int(math.Ceil(math.Log2(m))) // generous O(log m)
	absorbed := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		x := 1
		for s := 0; s < steps; s++ {
			x = c.Next(x, g)
		}
		if x == 0 || x == m {
			absorbed++
		}
	}
	frac := float64(absorbed) / trials
	if frac < 0.95 {
		t.Fatalf("absorbed fraction %v after %d steps", frac, steps)
	}
}

func TestMeanHittingTimeFromMiddle(t *testing.T) {
	c := NewGrowthChain(3, 3, 1, 81)
	g := rng.NewXoshiro256(6)
	// From 27, target 81: one or two successful growth steps; mean just
	// above 1.
	mean := MeanHittingTime(c, 27, 81, 10000, 2000, g)
	if mean < 1 || mean > 2 {
		t.Fatalf("mean %v, want within [1, 2]", mean)
	}
}
