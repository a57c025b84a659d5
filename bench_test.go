// Root benchmark harness: one benchmark per paper table row, figure,
// theorem and lemma experiment (internal/papereval's E1–E20), plus ablation
// benchmarks for the engine design choices (update order, engine, workers).
//
// Two kinds of benchmarks live here:
//
//   - Series benchmarks (BenchmarkFig1_*, BenchmarkThm*, BenchmarkLemma*)
//     run one simulation of the experiment's workload per iteration and
//     report the convergence round count via b.ReportMetric("rounds/op"),
//     regenerating the paper's series: run with -bench and compare the
//     rounds/op column across the n (or m) sub-benchmarks to read off the
//     growth shape the paper claims.
//   - Report benchmarks (BenchmarkReport_*) time the full papereval
//     experiment (sweep + fit + verdict) at quick scale, exercising the
//     exact code path cmd/experiments uses.
//
// Absolute times are machine-dependent; the shape of the rounds/op series
// is the reproduction target.
package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/adversary"
	"repro/consensus"
	"repro/internal/analysis"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/markov"
	"repro/internal/papereval"
	"repro/internal/rng"
	"repro/multidim"
	"repro/robust"
	"repro/rules"
)

// benchScale is the scale report benchmarks run at: one size smaller than
// papereval.Quick so `go test -bench=.` stays laptop-friendly.
var benchScale = papereval.Scale{
	Ns:        []float64{1e3, 1e4},
	Ms:        []float64{2, 4, 8},
	Reps:      3,
	MaxRounds: 20000,
	Workers:   2,
}

// runSeries executes cfg once per iteration and reports the mean round
// count as the "rounds" metric.
func runSeries(b *testing.B, mk func(seed uint64) consensus.Config) {
	b.Helper()
	var rounds, winners int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := consensus.Run(mk(uint64(i + 1)))
		rounds += int64(res.Rounds)
		winners += res.WinnerCount
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(winners)/float64(b.N), "agree/op")
}

// --- E1: Figure 1 row 1 / Theorem 10 — worst-case two bins ----------------

func BenchmarkFig1_TwoBinsNoAdversary(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values: consensus.TwoValue(n, n/2, 1, 2),
					Rule:   rules.Median{},
					Seed:   seed,
					Engine: consensus.EngineTwoBin,
				}
			})
		})
	}
}

func BenchmarkFig1_TwoBinsWithAdversary(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values: consensus.TwoValue(n, n/2, 1, 2),
					Rule:   rules.Median{},
					// 0.5·√n: the theorem's constant (see E1/E5 notes).
					Adversary:   adversary.NewBalancer(adversary.Sqrt(0.5), 1, 2),
					AlmostSlack: 3 * int(math.Sqrt(float64(n))),
					Seed:        seed,
					Engine:      consensus.EngineTwoBin,
				}
			})
		})
	}
}

// --- E2: Figure 1 row 2 / Theorems 1 & 3 — worst-case m bins --------------

func BenchmarkFig1_MBinsNoAdversary(b *testing.B) {
	// All-distinct start (m = n), the finest configuration: Theorem 1's
	// O(log n) claim is read off the rounds/op growth across this sweep.
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values: consensus.AllDistinct(n),
					Rule:   rules.Median{},
					Seed:   seed,
					Engine: consensus.EngineCount,
				}
			})
		})
	}
}

func BenchmarkFig1_MBinsWithAdversary(b *testing.B) {
	// m sweep at fixed n with a √n median-splitter: Theorem 3's
	// O(log m log log n + log n).
	const n = 100_000
	for _, m := range []int{2, 8, 64, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values:      consensus.EvenBlocks(n, m),
					Rule:        rules.Median{},
					Adversary:   adversary.NewMedianSplitter(adversary.Sqrt(1)),
					AlmostSlack: 3 * int(math.Sqrt(float64(n))),
					Seed:        seed,
					Engine:      consensus.EngineCount,
				}
			})
		})
	}
}

// --- E3: Figure 1 row 3 / Theorem 21 & Corollary 22 — average case --------

func BenchmarkFig1_AvgCase(b *testing.B) {
	// The parity effect: odd m converges in O(log m + log log n), even m
	// needs Θ(log n). Compare rounds/op between the odd/even pairs.
	const n = 100_000
	for _, m := range []int{15, 16, 63, 64} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values: consensus.UniformRandom(n, m, seed),
					Rule:   rules.Median{},
					Seed:   seed,
					Engine: consensus.EngineCount,
				}
			})
		})
	}
}

// --- E4: Theorem 2 — constant number of values + √n adversary -------------

func BenchmarkThm2_ConstValues(b *testing.B) {
	const n = 100_000
	for _, m := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values:      consensus.EvenBlocks(n, m),
					Rule:        rules.Median{},
					Adversary:   adversary.NewMedianSplitter(adversary.Sqrt(1)),
					AlmostSlack: 3 * int(math.Sqrt(float64(n))),
					Seed:        seed,
					Engine:      consensus.EngineCount,
				}
			})
		})
	}
}

// --- E5: tightness of T — an Ω̃(√n) balancer stalls the median rule -------

func BenchmarkLowerBound_Balancer(b *testing.B) {
	// With budget c·√(n·ln n) the balancer keeps two equal bins level for
	// the whole round cap; rounds/op pegging at maxRounds is the measured
	// stall (contrast with BenchmarkFig1_TwoBinsWithAdversary where the
	// √n budget loses).
	const n, maxRounds = 10_000, 2_000
	runSeries(b, func(seed uint64) consensus.Config {
		return consensus.Config{
			Values:      consensus.TwoValue(n, n/2, 1, 2),
			Rule:        rules.Median{},
			Adversary:   adversary.NewBalancer(adversary.SqrtLog(2), 1, 2),
			AlmostSlack: 3 * int(math.Sqrt(float64(n))),
			MaxRounds:   maxRounds,
			Seed:        seed,
			Engine:      consensus.EngineTwoBin,
		}
	})
}

// --- E6: the minimum rule is non-stabilizing; the median rule is not ------

func BenchmarkMinimumRuleAttack(b *testing.B) {
	const n, maxRounds = 10_000, 2_000
	for _, tc := range []struct {
		name string
		rule consensus.Rule
	}{{"minimum", rules.Minimum{}}, {"median", rules.Median{}}} {
		b.Run(tc.name, func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values:      consensus.TwoValue(n, 50, 1, 2),
					Rule:        tc.rule,
					Adversary:   adversary.NewReviver(1, 64),
					AlmostSlack: 3 * int(math.Sqrt(float64(n))),
					MaxRounds:   maxRounds,
					Seed:        seed,
					Engine:      consensus.EngineBall,
				}
			})
		})
	}
}

// --- E7: validity — the mean rule leaves the initial value set ------------

func BenchmarkMeanVsMedianValidity(b *testing.B) {
	const n = 10_000
	initial := make(map[consensus.Value]bool)
	values := consensus.Blocks([]int64{n / 4, n / 4, n / 4, n / 4})
	for _, v := range values {
		initial[v] = true
	}
	for _, tc := range []struct {
		name string
		rule consensus.Rule
	}{{"mean", rules.Mean{}}, {"median", rules.Median{}}} {
		b.Run(tc.name, func(b *testing.B) {
			valid := 0
			for i := 0; i < b.N; i++ {
				vals := make([]consensus.Value, len(values))
				copy(vals, values)
				res := consensus.Run(consensus.Config{
					Values: vals,
					Rule:   tc.rule,
					Seed:   uint64(i + 1),
					Engine: consensus.EngineBall,
				})
				if initial[res.Winner] {
					valid++
				}
			}
			b.ReportMetric(float64(valid)/float64(b.N), "validity/op")
		})
	}
}

// --- E8: Equation 1 — gravity g(i) = 6(n−i)i/n² + O(1/n) ------------------

func BenchmarkGravity(b *testing.B) {
	const n = 1_000_000
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, pos := range []int64{1, n / 4, n / 2, 3 * n / 4, n} {
			d := math.Abs(analysis.GravityExact(n, pos) - analysis.GravityApprox(n, pos))
			if d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst*float64(n), "n*err/op") // O(1/n) ⇒ n·err = O(1)
}

// --- E9: Lemma 15 — Pr[Δ_{t+1} ≥ (4/3)Δ_t] ≥ 1 − exp(−Θ(Δ²/n)) ------------

func BenchmarkLemma15Drift(b *testing.B) {
	const n = 1_000_000
	delta := int64(4 * math.Sqrt(n))
	g := rng.NewXoshiro256(99)
	hits := 0
	for i := 0; i < b.N; i++ {
		e := core.NewTwoBinEngine(n, n/2-delta, 1, 2, nil, g.Uint64(), core.Options{})
		e.Step()
		l, r := e.Counts()
		if (r-l)/2 >= delta*4/3 {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "drift-hit/op")
}

// --- E10: Lemma 14 — CLT kick-start from a perfectly balanced state -------

func BenchmarkLemma14CLT(b *testing.B) {
	const n = 1_000_000
	c := 0.25
	g := rng.NewXoshiro256(77)
	hits := 0
	for i := 0; i < b.N; i++ {
		e := core.NewTwoBinEngine(n, n/2, 1, 2, nil, g.Uint64(), core.Options{})
		e.Step()
		l, r := e.Counts()
		psi := float64(r-l) / 2
		if psi >= c*math.Sqrt(n) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "kick-hit/op")
}

// --- E11: Theorem 20 — phase halving under an adversary -------------------

func BenchmarkThm20Phases(b *testing.B) {
	const n, m = 100_000, 64
	for i := 0; i < b.N; i++ {
		tracker := analysis.NewPhaseTracker(m, n, 1)
		cfg := consensus.Config{
			Values:      consensus.EvenBlocks(n, m),
			Rule:        rules.Median{},
			Adversary:   adversary.NewMedianSplitter(adversary.Sqrt(1)),
			AlmostSlack: 3 * int(math.Sqrt(float64(n))),
			Seed:        uint64(i + 1),
			Engine:      consensus.EngineCount,
			Observer: func(round int, vals []consensus.Value, counts []int64) {
				full := make([]int64, m)
				for k, v := range vals {
					if v >= 1 && int(v) <= m {
						full[v-1] = counts[k]
					}
				}
				tracker.Observe(full)
			},
		}
		res := consensus.Run(cfg)
		b.ReportMetric(float64(res.Rounds), "rounds/op")
	}
}

// --- E12: model conformance — gossip simulator vs balls-and-bins ----------

func BenchmarkGossipConformance(b *testing.B) {
	const n = 2_048
	for _, engine := range []struct {
		name string
		e    consensus.Engine
	}{{"gossip", consensus.EngineGossip}, {"ball", consensus.EngineBall}} {
		b.Run(engine.name, func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values: consensus.UniformRandom(n, 8, seed),
					Rule:   rules.Median{},
					Seed:   seed,
					Engine: engine.e,
				}
			})
		})
	}
}

// --- E13: Lemma 17 — fineness coupling under shared randomness ------------

func BenchmarkLemma17Coupling(b *testing.B) {
	const n = 4_096
	fine := assign.Config(consensus.AllDistinct(n))
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		fe := core.NewBallEngine(fine, rules.Median{}, nil, seed, core.Options{})
		rf := fe.Run()
		b.ReportMetric(float64(rf.Rounds), "fine-rounds/op")
	}
}

// --- E14: Lemmas 8/9 — absorbing-chain hitting times -----------------------

func BenchmarkMarkovHitting(b *testing.B) {
	const m = 1 << 20
	g := rng.NewXoshiro256(4242)
	c := markov.NewGrowthChain(1.5, 0.4, 0.6, m)
	var total int64
	for i := 0; i < b.N; i++ {
		steps := markov.HittingTime(c, 0, m, 64*20, g)
		total += int64(steps)
	}
	b.ReportMetric(float64(total)/float64(b.N), "steps/op")
}

// --- E15: Lemma 11 — Δ0 ≥ cn collapses in O(log log n) rounds --------------

func BenchmarkLemma11LogLog(b *testing.B) {
	for _, n := range []int64{1e6, 1e9, 1e12} {
		b.Run(fmt.Sprintf("n=%g", float64(n)), func(b *testing.B) {
			g := rng.NewXoshiro256(5511)
			var rounds int64
			for i := 0; i < b.N; i++ {
				e := core.NewTwoBinEngine(n, n/4, 1, 2, nil, g.Uint64(), core.Options{})
				res := e.Run()
				rounds += int64(res.Rounds)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblation_KChoices: convergence speed vs message cost for the
// k-choices median generalisation (E16).
func BenchmarkAblation_KChoices(b *testing.B) {
	const n = 50_000
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("choices=%d", 2*k), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values: consensus.AllDistinct(n),
					Rule:   rules.NewKMedian(k),
					Seed:   seed,
					Engine: consensus.EngineCount,
				}
			})
		})
	}
}

// BenchmarkAblation_InPlace compares synchronous double-buffered updates
// (the paper's model) with the asynchronous in-place variant.
func BenchmarkAblation_InPlace(b *testing.B) {
	const n = 50_000
	cfg := assign.Config(consensus.AllDistinct(n))
	for _, tc := range []struct {
		name    string
		inPlace bool
	}{{"synchronous", false}, {"in-place", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				e := core.NewBallEngine(cfg, rules.Median{}, nil, uint64(i+1),
					core.Options{InPlace: tc.inPlace})
				rounds += int64(e.Run().Rounds)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkAblation_Engines measures per-round throughput of the three
// count-compatible engines on the same workload.
func BenchmarkAblation_Engines(b *testing.B) {
	const n = 100_000
	for _, tc := range []struct {
		name   string
		engine consensus.Engine
		values []consensus.Value
	}{
		{"ball", consensus.EngineBall, consensus.TwoValue(n, n/3, 1, 2)},
		{"count", consensus.EngineCount, consensus.TwoValue(n, n/3, 1, 2)},
		{"twobin", consensus.EngineTwoBin, consensus.TwoValue(n, n/3, 1, 2)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				vals := make([]consensus.Value, len(tc.values))
				copy(vals, tc.values)
				return consensus.Config{
					Values: vals,
					Rule:   rules.Median{},
					Seed:   seed,
					Engine: tc.engine,
				}
			})
		})
	}
}

// BenchmarkAblation_Workers measures the sharded parallel ball engine.
func BenchmarkAblation_Workers(b *testing.B) {
	const n = 200_000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runSeries(b, func(seed uint64) consensus.Config {
				return consensus.Config{
					Values:  consensus.AllDistinct(n),
					Rule:    rules.Median{},
					Seed:    seed,
					Engine:  consensus.EngineBall,
					Workers: w,
				}
			})
		})
	}
}

// BenchmarkRuleUpdate measures raw per-update cost of each rule.
func BenchmarkRuleUpdate(b *testing.B) {
	sampled := []consensus.Value{7, 3}
	for _, r := range []consensus.Rule{
		rules.Median{}, rules.Majority{}, rules.Minimum{}, rules.Mean{},
		rules.NewKMedian(2), rules.Voter{},
	} {
		var buf []consensus.Value
		if r.Samples() > 2 {
			buf = []consensus.Value{7, 3, 9, 1}
		} else {
			buf = sampled[:r.Samples()]
		}
		b.Run(r.Name(), func(b *testing.B) {
			var v consensus.Value
			for i := 0; i < b.N; i++ {
				v = r.Update(5, buf)
			}
			_ = v
		})
	}
}

// --- Report benchmarks: the cmd/experiments code paths --------------------

func BenchmarkReport_E1TwoBins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		papereval.E1Fig1TwoBins(benchScale)
	}
}

func BenchmarkReport_E3AvgCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		papereval.E3Fig1AvgCase(benchScale)
	}
}

func BenchmarkReport_E8Gravity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		papereval.E8Gravity(benchScale)
	}
}

// --- E18: Section 6 future work — d-dimensional median dynamics -----------

func BenchmarkMultidimFutureWork(b *testing.B) {
	const n = 10_000
	for _, d := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var rounds, fabricated int64
			for i := 0; i < b.N; i++ {
				e := multidim.NewEngine(multidim.DistinctPoints(n, d), nil,
					uint64(i+1), multidim.Options{})
				res := e.Run()
				rounds += int64(res.Rounds)
				if !res.TupleValid {
					fabricated++
				}
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(fabricated)/float64(b.N), "fabricated/op")
		})
	}
}

// BenchmarkMultidimEngines compares per-run cost of the per-process and
// count-level multidim engines on a small-support workload (the count
// engine's home regime: few distinct tuples, large n). The count engine's
// win here is memory (O(k·d) vs O(n·d) state), so wall-clock parity at
// equal n is the expectation; the CI bench job archives this output to
// track the trajectory.
func BenchmarkMultidimEngines(b *testing.B) {
	const n, d, m = 20_000, 2, 4
	pts := multidim.RandomPoints(n, d, m, 1)
	b.Run("process", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			res := multidim.NewEngine(pts, nil, uint64(i+1), multidim.Options{}).Run()
			rounds += int64(res.Rounds)
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	})
	b.Run("count", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			res := multidim.NewCountEngine(pts, nil, uint64(i+1), multidim.CountOptions{}).Run()
			rounds += int64(res.Rounds)
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	})
}

// --- E19: exact-chain validation benches -----------------------------------

func BenchmarkExactChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := exact.NewChain(120)
		_ = c.AbsorptionTimes()
		_ = c.WinProbabilities()
	}
}

// --- E20: Section 6 future work — robustness outside the clean model ------

func BenchmarkRobustness(b *testing.B) {
	const n = 10_000
	for _, tc := range []struct {
		name string
		opts robust.Options
	}{
		{"async", robust.Options{}},
		{"loss=30%", robust.Options{LossProb: 0.3}},
		{"crashes=sqrt(n)", robust.Options{Crashes: 100}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var pt float64
			var dissent int64
			for i := 0; i < b.N; i++ {
				res := robust.NewEngine(assign.AllDistinct(n), tc.opts, uint64(i+1)).Run()
				pt += res.ParallelTime
				dissent += int64(res.Dissenters)
			}
			b.ReportMetric(pt/float64(b.N), "ptime/op")
			b.ReportMetric(float64(dissent)/float64(b.N), "dissent/op")
		})
	}
}

// --- E21: the n ~ 10⁹ hot path — count-level init and round loops ---------

// BenchmarkMultidimInit compares materializing a multidim initial state
// per-process (O(n·d) points) against count-native (one multinomial draw
// over the m^d cells, O(k·d)): the same spec, but the count builder's cost
// is independent of n. The per-process path at n=10⁹ would allocate
// ~16 GiB and is skipped — that gap is the benchmark's finding.
func BenchmarkMultidimInit(b *testing.B) {
	for _, n := range []int{100_000, 10_000_000, 1_000_000_000} {
		spec := multidim.InitSpec{Kind: "random", N: n, D: 2, M: 4, Seed: 1}
		b.Run(fmt.Sprintf("point/n=%.0e", float64(n)), func(b *testing.B) {
			if n > 10_000_000 {
				b.Skip("per-process init at n=1e9 allocates ~16 GiB")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := multidim.BuildInit(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("count/n=%.0e", float64(n)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := multidim.BuildInitCounts(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountInit measures the count-native init builders at the
// acceptance scale n = 10⁹ for both hot paths: the scalar uniform
// distribution (one multinomial over m bins) and the multidim random cell
// distribution (one multinomial over m^d cells).
func BenchmarkCountInit(b *testing.B) {
	const n = 1_000_000_000
	b.Run("scalar-uniform", func(b *testing.B) {
		spec := consensus.InitSpec{Kind: "uniform", N: n, M: 64, Seed: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := consensus.BuildInitDist(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multidim-random", func(b *testing.B) {
		spec := multidim.InitSpec{Kind: "random", N: n, D: 3, M: 4, Seed: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := multidim.BuildInitCounts(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCountRound measures the steady-state per-round cost of the
// count engines under a noise adversary (so the chain never absorbs and
// every iteration does a full round's work). Both engines move each live
// value's balls with one multinomial over its exact transition row
// (randx.Rows), so a round costs O(k^(s+1)) whatever n is — the scalar
// and multidim rows run n up to the acceptance scale 10⁹ — and the
// allocs/op column is zero: the round loops reuse engine-owned scratch
// (TestCountEngineStepAllocs and TestCountEngineRoundAllocs pin this as a
// regression).
//
// The switch rows time one round from an even 16-value (scalar) or
// 16-tuple (multidim) median distribution on either side of the engines'
// per-ball/rows switch at n = k³ (randx.RowsCheaper): n = 4095 samples
// every ball, n = 4096 runs the rows, and the two should cost about the
// same. Engine set-up runs with the timer stopped; the scalar rows build
// a fresh engine per round, so their allocs are its first-round
// workspace growth.
func BenchmarkCountRound(b *testing.B) {
	for _, n := range []int{100_000, 10_000_000, 1_000_000_000} {
		b.Run(fmt.Sprintf("scalar/n=%.0e", float64(n)), func(b *testing.B) {
			d := assign.Dist{Vals: []core.Value{1, 2, 3, 4, 5}, Counts: []int64{int64(n) / 5, int64(n) / 5, int64(n) / 5, int64(n) / 5, int64(n) - 4*(int64(n)/5)}}
			eng := core.NewCountEngineDist(d, rules.Median{}, adversary.NewRandomNoise(adversary.Fixed(2)), 1, core.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
	for _, n := range []int{100_000, 1_000_000_000} {
		b.Run(fmt.Sprintf("multidim/n=%.0e", float64(n)), func(b *testing.B) {
			tuples := []multidim.Point{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
			counts := []int64{int64(n) / 4, int64(n) / 4, int64(n) / 4, int64(n) - 3*(int64(n)/4)}
			eng := multidim.NewCountEngineDist(tuples, counts, &multidim.NoiseAdversary{T: 2}, 1, multidim.CountOptions{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
	const k = 16
	for _, sw := range []struct {
		n    int64
		mode string
	}{{k*k*k - 1, "sampled"}, {k * k * k, "rows"}} {
		vals := make([]core.Value, k)
		tuples := make([]multidim.Point, k)
		counts := make([]int64, k)
		for i := range vals {
			vals[i] = core.Value(i + 1)
			tuples[i] = multidim.Point{int64(i / 4), int64(i % 4)}
			counts[i] = sw.n / k
		}
		counts[0] += sw.n - k*(sw.n/k)
		b.Run(fmt.Sprintf("switch/scalar/k=%d/n=%d-%s", k, sw.n, sw.mode), func(b *testing.B) {
			d := assign.Dist{Vals: vals, Counts: counts}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := core.NewCountEngineDist(d, rules.Median{}, nil, uint64(i), core.Options{})
				b.StartTimer()
				eng.Step()
			}
		})
		b.Run(fmt.Sprintf("switch/multidim/k=%d/n=%d-%s", k, sw.n, sw.mode), func(b *testing.B) {
			eng := multidim.NewCountEngineDist(tuples, counts, nil, 1, multidim.CountOptions{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng.Reset(tuples, counts)
				b.StartTimer()
				eng.Step()
			}
		})
	}
}
