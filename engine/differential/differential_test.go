package differential

import (
	"math"
	"sort"
	"testing"

	"repro/consensus"
	"repro/engine"
	"repro/internal/exact"
	"repro/internal/randx"
	"repro/rules"
)

// The absorption-time fixture: n and the low-bin start count of the
// twovalue init, which is exactly the exact chain's start state.
const (
	timeN      = 60
	timeStart  = 21
	timeTrials = 600
)

// The win-probability fixture uses a smaller, closer-to-balanced chain so
// the exact win probability is moderate (≈ 0.19) and a few thousand
// Bernoulli trials resolve it tightly.
const (
	winN      = 40
	winStart  = 18
	winTrials = 2000
)

// sigmas is the band half-width in standard errors. Seeds are fixed, so
// this is not a flake budget: 5σ would be exceeded by chance once in ~10⁶
// re-rolls of the seed list, and never by re-running the same seeds.
const sigmas = 5

// simTrials runs `trials` fixed-seed runs of one count-level median-kind
// engine over the twovalue init and returns each run's rounds-to-consensus
// plus the number of runs the low value won.
func simTrials(t *testing.T, engineName string, n, nLow, trials int) (rounds []int, lowWins int) {
	t.Helper()
	rounds = make([]int, 0, trials)
	for seed := 1; seed <= trials; seed++ {
		spec := engine.Spec{
			Kind: "median",
			Seed: uint64(seed),
			Payload: &consensus.Spec{
				Init:   consensus.InitSpec{Kind: "twovalue", N: n, NLow: nLow},
				Rule:   rules.Ref{Name: "median"},
				Engine: engineName,
			},
		}
		res, err := engine.Execute(spec, nil, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", engineName, seed, err)
		}
		rounds = append(rounds, res.Rounds)
		if res.Winner == exact.ValueLeft {
			lowWins++
		}
	}
	return rounds, lowWins
}

// meanStd returns the sample mean and standard deviation.
func meanStd(xs []int) (mean, sd float64) {
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := float64(x) - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(xs)-1))
	return mean, sd
}

// TestDifferentialAbsorptionTime: each engine's mean rounds-to-consensus
// must sit inside a 5σ confidence band around the chain's exact expected
// absorption time. A bias in the binomial update (twobin) or the sampling
// loop (count) shifts the mean and trips the band.
func TestDifferentialAbsorptionTime(t *testing.T) {
	want := exact.NewChain(timeN).AbsorptionTimes()[timeStart]
	for _, engineName := range []string{"twobin", "count"} {
		rounds, _ := simTrials(t, engineName, timeN, timeStart, timeTrials)
		mean, sd := meanStd(rounds)
		band := sigmas*sd/math.Sqrt(float64(len(rounds))) + 0.05
		t.Logf("%s: mean %0.4f ± %0.4f vs exact %0.4f over %d trials",
			engineName, mean, band, want, len(rounds))
		if math.Abs(mean-want) > band {
			t.Errorf("%s mean absorption time %0.4f outside exact %0.4f ± %0.4f",
				engineName, mean, want, band)
		}
	}
}

// TestDifferentialWinProbability: each engine's empirical low-value win
// rate must sit inside a 5σ Bernoulli band around the chain's exact win
// probability — the sharpest test of the dynamics' bias, since any
// asymmetry in tie-breaking or sampling moves it.
func TestDifferentialWinProbability(t *testing.T) {
	want := exact.NewChain(winN).WinProbabilities()[winStart]
	for _, engineName := range []string{"twobin", "count"} {
		_, wins := simTrials(t, engineName, winN, winStart, winTrials)
		got := float64(wins) / winTrials
		band := sigmas*math.Sqrt(want*(1-want)/winTrials) + 0.01
		t.Logf("%s: win rate %0.4f ± %0.4f vs exact %0.4f over %d trials",
			engineName, got, band, want, winTrials)
		if math.Abs(got-want) > band {
			t.Errorf("%s win rate %0.4f outside exact %0.4f ± %0.4f",
				engineName, got, want, band)
		}
	}
}

// TestDifferentialAbsorptionCDF: the empirical distribution of
// rounds-to-consensus must track the chain's absorption CDF pointwise (a
// per-quantile check, sharper than the mean: a variance bug leaves the
// mean intact and trips this). Probe rounds are chosen where the exact
// CDF is informative.
func TestDifferentialAbsorptionCDF(t *testing.T) {
	c := exact.NewChain(timeN)
	maxRounds := 200
	cdf := c.AbsorptionCDF(timeStart, maxRounds)
	for _, engineName := range []string{"twobin", "count"} {
		rounds, _ := simTrials(t, engineName, timeN, timeStart, timeTrials)
		sort.Ints(rounds)
		for _, probe := range []int{4, 7, 10, 15, 25} {
			want := cdf[probe]
			// Empirical CDF: fraction of runs absorbed by round probe.
			got := float64(sort.SearchInts(rounds, probe+1)) / float64(len(rounds))
			band := sigmas*math.Sqrt(want*(1-want)/float64(len(rounds))) + 0.01
			if math.Abs(got-want) > band {
				t.Errorf("%s CDF at round %d: empirical %0.4f outside exact %0.4f ± %0.4f",
					engineName, probe, got, want, band)
			}
		}
	}
}

// TestDifferentialCountFixturesRunRows: the count engine's runs above
// must exercise its transition-row round (randx.Rows), not per-ball
// sampling. A twovalue median run has at most k = 2 live values and
// s = 2 samples per ball.
func TestDifferentialCountFixturesRunRows(t *testing.T) {
	for _, n := range []int64{timeN, winN} {
		if !randx.RowsCheaper(n, 2, 2) {
			t.Errorf("count fixture n = %d samples every ball instead of running the rows", n)
		}
	}
}

// TestDifferentialExactKindSelfConsistent closes the loop: the registered
// exact kind must agree with the chain it wraps bit-for-bit, so the two
// tests above really compare simulation against the analytic spec the
// service serves, not against a drifted copy.
func TestDifferentialExactKindSelfConsistent(t *testing.T) {
	res, err := engine.Execute(engine.Spec{
		Kind:    "exact",
		Payload: &exact.Spec{N: timeN, Start: timeStart},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := exact.NewChain(timeN)
	if got, want := res.Exact.ExpectedRounds, c.AbsorptionTimes()[timeStart]; got != want {
		t.Errorf("exact kind ExpectedRounds %v != chain %v", got, want)
	}
	if got, want := res.Exact.WinProbability, c.WinProbabilities()[timeStart]; got != want {
		t.Errorf("exact kind WinProbability %v != chain %v", got, want)
	}
}
