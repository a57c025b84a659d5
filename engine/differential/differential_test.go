package differential

import (
	"math"
	"sort"
	"testing"

	"repro/consensus"
	"repro/engine"
	"repro/internal/exact"
	"repro/internal/model"
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

// chainRun is one simulated column of the exact-chain tests: an engine of
// the median kind and a rule that equals the median rule on two values.
// Median takes the count engine's order-statistic round, majority its
// transition rows (see TestDifferentialCountFixturePaths).
type chainRun struct{ engine, rule string }

var chainRuns = []chainRun{{"twobin", "median"}, {"count", "median"}, {"count", "majority"}}

func (c chainRun) String() string { return c.engine + "/" + c.rule }

// simTrials runs `trials` fixed-seed runs of one count-level median-kind
// engine over the twovalue init and returns each run's rounds-to-consensus
// plus the number of runs the low value won.
func simTrials(t *testing.T, run chainRun, n, nLow, trials int) (rounds []int, lowWins int) {
	t.Helper()
	rounds = make([]int, 0, trials)
	for seed := 1; seed <= trials; seed++ {
		spec := engine.Spec{
			Kind: "median",
			Seed: uint64(seed),
			Payload: &consensus.Spec{
				Init:   consensus.InitSpec{Kind: "twovalue", N: n, NLow: nLow},
				Rule:   rules.Ref{Name: run.rule},
				Engine: run.engine,
			},
		}
		res, err := engine.Execute(spec, nil, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", run, seed, err)
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
	for _, run := range chainRuns {
		rounds, _ := simTrials(t, run, timeN, timeStart, timeTrials)
		mean, sd := meanStd(rounds)
		band := sigmas*sd/math.Sqrt(float64(len(rounds))) + 0.05
		t.Logf("%s: mean %0.4f ± %0.4f vs exact %0.4f over %d trials",
			run, mean, band, want, len(rounds))
		if math.Abs(mean-want) > band {
			t.Errorf("%s mean absorption time %0.4f outside exact %0.4f ± %0.4f",
				run, mean, want, band)
		}
	}
}

// TestDifferentialWinProbability: each engine's empirical low-value win
// rate must sit inside a 5σ Bernoulli band around the chain's exact win
// probability — the sharpest test of the dynamics' bias, since any
// asymmetry in tie-breaking or sampling moves it.
func TestDifferentialWinProbability(t *testing.T) {
	want := exact.NewChain(winN).WinProbabilities()[winStart]
	for _, run := range chainRuns {
		_, wins := simTrials(t, run, winN, winStart, winTrials)
		got := float64(wins) / winTrials
		band := sigmas*math.Sqrt(want*(1-want)/winTrials) + 0.01
		t.Logf("%s: win rate %0.4f ± %0.4f vs exact %0.4f over %d trials",
			run, got, band, want, winTrials)
		if math.Abs(got-want) > band {
			t.Errorf("%s win rate %0.4f outside exact %0.4f ± %0.4f",
				run, got, want, band)
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
	for _, run := range chainRuns {
		rounds, _ := simTrials(t, run, timeN, timeStart, timeTrials)
		sort.Ints(rounds)
		for _, probe := range []int{4, 7, 10, 15, 25} {
			want := cdf[probe]
			// Empirical CDF: fraction of runs absorbed by round probe.
			got := float64(sort.SearchInts(rounds, probe+1)) / float64(len(rounds))
			band := sigmas*math.Sqrt(want*(1-want)/float64(len(rounds))) + 0.01
			if math.Abs(got-want) > band {
				t.Errorf("%s CDF at round %d: empirical %0.4f outside exact %0.4f ± %0.4f",
					run, probe, got, want, band)
			}
		}
	}
}

// TestDifferentialCountFixturePaths: the count engine's runs above must
// exercise both of the rounds that can reach a twovalue start — the
// order-statistic round for median, and the transition-row round
// (randx.Rows) for majority, which has no order-statistic form — and not
// per-ball sampling. A twovalue run has at most k = 2 live values and
// s = 2 samples per ball.
func TestDifferentialCountFixturePaths(t *testing.T) {
	for _, run := range chainRuns {
		rule, err := rules.New(run.rule, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, orderStat := rule.(model.OrderStatRule)
		if orderStat != (run.rule == "median") {
			t.Errorf("%s: order-statistic round %v, want it for median only", run, orderStat)
		}
		for _, n := range []int64{timeN, winN} {
			if !orderStat && !randx.RowsCheaper(n, 2, rule.Samples()) {
				t.Errorf("%s fixture n = %d samples every ball instead of running the rows", run, n)
			}
		}
	}
}

// The seed-stream fixtures: uniform starts of the paper's Section 5
// average case, each run seeded through engine.Spec.SetSeed, which copies
// the run seed into the init.
var seedStreamShapes = []struct{ n, m int }{{1000, 8}, {5000, 16}}

const (
	seedStreamTrials = 40000
	// indepInitOffset moves a run's init seed away from its run seed, to
	// a seed no trial uses as its run seed.
	indepInitOffset = 1 << 32
)

// uniformRounds runs a count-engine median run from a uniform start with
// run seed seed, its init seeded by SetSeed or, when initSeed is non-zero,
// with initSeed, and returns its rounds.
func uniformRounds(t *testing.T, n, m int, seed, initSeed uint64) int {
	t.Helper()
	payload := &consensus.Spec{
		Init:   consensus.InitSpec{Kind: "uniform", N: n, M: m},
		Rule:   rules.Ref{Name: "median"},
		Engine: "count",
	}
	spec := engine.Spec{Kind: "median", Payload: payload}
	spec.SetSeed(seed)
	if initSeed != 0 {
		payload.Init.Seed = initSeed
	}
	res, err := engine.Execute(spec, nil, nil)
	if err != nil {
		t.Fatalf("uniform n=%d m=%d seed %d: %v", n, m, seed, err)
	}
	return res.Rounds
}

// TestDifferentialSeededUniformInit: a run whose uniform init follows its
// run seed (SetSeed, as batch expansion does; consensusctl's -seed sets
// both too) must converge like one whose init is seeded independently. The two sides'
// mean rounds must agree inside a 5σ band on their difference. An init
// that drew from the run's own random stream made the first round reuse
// the numbers that built the start, which shortened runs by 9–11σ here.
func TestDifferentialSeededUniformInit(t *testing.T) {
	for _, shape := range seedStreamShapes {
		follow := make([]int, 0, seedStreamTrials)
		indep := make([]int, 0, seedStreamTrials)
		for seed := uint64(1); seed <= seedStreamTrials; seed++ {
			follow = append(follow, uniformRounds(t, shape.n, shape.m, seed, 0))
			indep = append(indep, uniformRounds(t, shape.n, shape.m, seed, seed+indepInitOffset))
		}
		mf, sf := meanStd(follow)
		mi, si := meanStd(indep)
		band := sigmas * math.Sqrt((sf*sf+si*si)/seedStreamTrials)
		t.Logf("n=%d m=%d: seeded init %0.4f vs independent init %0.4f mean rounds (band ±%0.4f)",
			shape.n, shape.m, mf, mi, band)
		if math.Abs(mf-mi) > band {
			t.Errorf("n=%d m=%d: seeded-init runs take %0.4f mean rounds, independently seeded ones %0.4f: difference outside ±%0.4f",
				shape.n, shape.m, mf, mi, band)
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
