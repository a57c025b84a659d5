package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/assign"
	"repro/internal/model"
	"repro/internal/randx"
	"repro/rules"
)

// The exactness gate for the count engine's rounds: from a fixed
// distribution, the mean next-round count of every value over many seeded
// one-round steps must sit inside a 5σ band of an oracle computed without
// the engine. Seeds are fixed, so a failure is a biased round, never a
// flake. Each fixture is named after the round it runs. "orderstat" is
// the base counts under a rule with an order-statistic form (the O(k)
// round of orderstat.go). "rows" and "sampled" run the rule with that form
// hidden (hideOrderStat): "rows" is the smallest multiple of the base
// counts that runs the transition rows (randx.Rows), so a bias of one
// ball in a weight still shows, and "sampled" samples every ball. All
// three must be exact.
var rowFixtureVals = []Value{1, 2, 4, 7, 9}
var rowFixtureCounts = []int64{3, 5, 1, 6, 5} // n = 20 < 5^(s+1) for s ≥ 1

// kernels names the count engine's three rounds, as its fixtures do.
var kernels = []string{"sampled", "rows", "orderstat"}

// orderStatTrials is the number of one-round steps an "orderstat" fixture
// averages: that round is cheap, so its bands can be tighter.
const orderStatTrials = 20000

// rowFixtures returns the fixtures for s samples, by kernel name.
func rowFixtures(s int) map[string]assign.Dist {
	rowsN := int64(math.Pow(float64(len(rowFixtureVals)), float64(s+1)))
	out := map[string]assign.Dist{}
	for name, scale := range map[string]int64{"sampled": 1, "rows": (rowsN + 19) / 20, "orderstat": 1} {
		counts := make([]int64, len(rowFixtureCounts))
		for i, c := range rowFixtureCounts {
			counts[i] = c * scale
		}
		out[name] = assign.Dist{Vals: rowFixtureVals, Counts: counts}
	}
	return out
}

// hideOrderStat wraps rule so that only model.Rule's methods show: the
// count engine then runs it on the transition rows or per-ball sampling.
func hideOrderStat(rule model.Rule) model.Rule { return struct{ model.Rule }{rule} }

// fixtureRule returns the rule a fixture runs: rule itself for
// "orderstat", rule with its order-statistic form hidden otherwise.
func fixtureRule(name string, rule model.Rule) model.Rule {
	if name == "orderstat" {
		return rule
	}
	return hideOrderStat(rule)
}

// kernelOf names the round the count engine runs for rule on d.
func kernelOf(rule model.Rule, d assign.Dist) string {
	if _, ok := rule.(model.OrderStatRule); ok {
		return "orderstat"
	}
	if randx.RowsCheaper(d.N(), len(d.Vals), rule.Samples()) {
		return "rows"
	}
	return "sampled"
}

// kernelTaken checks that a fixture runs the round it is named after.
func kernelTaken(t *testing.T, name string, d assign.Dist, rule model.Rule) {
	t.Helper()
	if got := kernelOf(rule, d); got != name {
		t.Fatalf("fixture %s (n=%d, k=%d, s=%d) runs %s", name, d.N(), len(d.Vals), rule.Samples(), got)
	}
}

// orderStatRows is the closed form of the transition rows of a rule with
// an order-statistic form whose down and up tails are g and h (g(x) is
// the chance that at least down of the samples fall in a set of mass x):
// with F the distribution function of p, a ball at v moves to u < v with
// probability g(F(u)) − g(F(u⁻)) and to u > v with h(1−F(u⁻)) − h(1−F(u)).
func orderStatRows(d assign.Dist, g, h func(float64) float64) map[Value]map[Value]float64 {
	n := float64(d.N())
	cdf := make([]float64, len(d.Vals)+1) // cdf[i] = F(vals[i]⁻)
	for i, c := range d.Counts {
		cdf[i+1] = cdf[i] + float64(c)/n
	}
	rows := map[Value]map[Value]float64{}
	for vi, v := range d.Vals {
		row := map[Value]float64{}
		stay := 1.0
		for ui, u := range d.Vals {
			var p float64
			switch {
			case ui < vi:
				p = g(cdf[ui+1]) - g(cdf[ui])
			case ui > vi:
				p = h(1-cdf[ui]) - h(1-cdf[ui+1])
			default:
				continue
			}
			row[u] = p
			stay -= p
		}
		row[v] = stay
		rows[v] = row
	}
	return rows
}

// medianRows is the median rule's closed form: both samples below v, the
// larger at u, so g(x) = h(x) = x².
func medianRows(d assign.Dist) map[Value]map[Value]float64 {
	square := func(x float64) float64 { return x * x }
	return orderStatRows(d, square, square)
}

// tailRef is P(Bin(s, x) ≥ r) summed term by term in log space: the
// reference the order-statistic round's tails are checked against.
func tailRef(s, r int, x float64) float64 {
	if x >= 1 {
		return 1
	}
	var p float64
	for j := r; j <= s; j++ {
		lc, _ := math.Lgamma(float64(s + 1))
		lj, _ := math.Lgamma(float64(j + 1))
		lr, _ := math.Lgamma(float64(s - j + 1))
		p += math.Exp(lc - lj - lr + float64(j)*math.Log(x) + float64(s-j)*math.Log1p(-x))
	}
	return p
}

// bruteRows enumerates every ordered sample tuple recursively and sums
// its probability into the row of Update's result.
func bruteRows(d assign.Dist, rule model.Rule) map[Value]map[Value]float64 {
	n := float64(d.N())
	s := rule.Samples()
	rows := map[Value]map[Value]float64{}
	for _, v := range d.Vals {
		row := map[Value]float64{}
		sample := make([]Value, s)
		var walk func(i int, p float64)
		walk = func(i int, p float64) {
			if i == s {
				row[rule.Update(v, sample)] += p
				return
			}
			for wi, w := range d.Vals {
				sample[i] = w
				walk(i+1, p*float64(d.Counts[wi])/n)
			}
		}
		walk(0, 1)
		rows[v] = row
	}
	return rows
}

// checkNextCounts steps `trials` fresh engines built by step once from d
// (seeds 1..trials) and requires each value's mean next count to lie
// within 5σ of Σ_v c_v·P(v→u), σ² = Σ_v c_v·P(v→u)(1−P(v→u)) / trials.
func checkNextCounts(t *testing.T, d assign.Dist, rows map[Value]map[Value]float64, trials int, step func(seed uint64) ([]Value, []int64)) {
	t.Helper()
	mean, variance := map[Value]float64{}, map[Value]float64{}
	for vi, v := range d.Vals {
		c := float64(d.Counts[vi])
		for u, p := range rows[v] {
			mean[u] += c * p
			variance[u] += c * p * (1 - p)
		}
	}
	sum := map[Value]float64{}
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		vals, counts := step(seed)
		var total int64
		for i, u := range vals {
			if mean[u] == 0 {
				t.Fatalf("seed %d: %d balls moved to %d, which no row reaches", seed, counts[i], u)
			}
			sum[u] += float64(counts[i])
			total += counts[i]
		}
		if total != d.N() {
			t.Fatalf("seed %d: %d balls after the round, want %d", seed, total, d.N())
		}
	}
	keys := make([]Value, 0, len(mean))
	for u := range mean {
		keys = append(keys, u)
	}
	slices.Sort(keys)
	for _, u := range keys {
		got := sum[u] / float64(trials)
		band := 5*math.Sqrt(variance[u]/float64(trials)) + 1e-9
		if math.Abs(got-mean[u]) > band {
			t.Errorf("value %d: mean next count %.4f outside %.4f ± %.4f", u, got, mean[u], band)
		}
	}
}

func countStep(d assign.Dist, rule model.Rule) func(uint64) ([]Value, []int64) {
	return func(seed uint64) ([]Value, []int64) {
		e := NewCountEngineDist(d, rule, nil, seed, Options{})
		e.Step()
		return e.Dist()
	}
}

// TestRowKernelMatchesMedianClosedForm gates the median round against
// the order-statistics closed form.
func TestRowKernelMatchesMedianClosedForm(t *testing.T) {
	for _, name := range kernels {
		t.Run(name, func(t *testing.T) {
			d := rowFixtures(2)[name]
			rule := fixtureRule(name, rules.Median{})
			kernelTaken(t, name, d, rule)
			trials := 2000
			if name == "orderstat" {
				trials = orderStatTrials
			}
			checkNextCounts(t, d, medianRows(d), trials, countStep(d, rule))
		})
	}
}

// TestRowKernelMatchesBruteForceRows gates the rounds for rules with other
// sample counts and output sets against brute-force rows: minimum and
// maximum (s = 1, one threshold never fires), voter (s = 1, ignores its own
// value), mean (s = 2, creates values outside the support, so it has no
// order-statistic round) and median-4choices (s = 4).
func TestRowKernelMatchesBruteForceRows(t *testing.T) {
	for _, rule := range []model.Rule{rules.Minimum{}, rules.Maximum{}, rules.Voter{}, rules.Mean{}, rules.NewKMedian(2)} {
		for _, name := range kernels {
			if _, ok := rule.(model.OrderStatRule); !ok && name == "orderstat" {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", rule.Name(), name), func(t *testing.T) {
				d := rowFixtures(rule.Samples())[name]
				r := fixtureRule(name, rule)
				kernelTaken(t, name, d, r)
				trials := 1000
				if name == "orderstat" {
					trials = orderStatTrials
				}
				checkNextCounts(t, d, bruteRows(d, rule), trials, countStep(d, r))
			})
		}
	}
}

// TestRowKernelOrderStatLargeSupport runs the order-statistic round where
// the other two cannot: median-10choices (s = 10) over 64 values, whose
// rows would take 64^11 rule calls. Its oracle is the order-statistics
// closed form of the rows with the binomial tails of tailRef, which must
// first match brute-force rows where those are feasible (median-4choices
// on the five-value fixture).
func TestRowKernelOrderStatLargeSupport(t *testing.T) {
	tails := func(s, r int) func(float64) float64 {
		return func(x float64) float64 { return tailRef(s, r, x) }
	}
	small := rowFixtures(4)["orderstat"]
	closed, brute := orderStatRows(small, tails(4, 3), tails(4, 3)), bruteRows(small, rules.NewKMedian(2))
	for v, row := range brute {
		for u, p := range row {
			if math.Abs(closed[v][u]-p) > 1e-12 {
				t.Fatalf("closed-form row %d→%d = %v, brute force %v", v, u, closed[v][u], p)
			}
		}
	}
	const k, s, down = 64, 10, 6
	d := assign.Dist{Vals: make([]Value, k), Counts: make([]int64, k)}
	for i := range d.Vals {
		d.Vals[i] = Value(3 * i)
		d.Counts[i] = int64(1 + (i*i)%17)
	}
	rule := rules.NewKMedian(s / 2)
	kernelTaken(t, "orderstat", d, rule)
	checkNextCounts(t, d, orderStatRows(d, tails(s, down), tails(s, down)), 5000, countStep(d, rule))
}

// TestRowKernelOrderStatTails checks the order-statistic round's binomial
// tails against tailRef, across sample counts on both sides of atLeast's
// plain-arithmetic limit and masses near 0 and 1.
func TestRowKernelOrderStatTails(t *testing.T) {
	for _, s := range []int{1, 2, 3, 4, 10, 33, 60, 61, 200, 2000} {
		for _, r := range []int{1, 2, s/2 + 1, s} {
			if r > s {
				continue
			}
			for _, x := range []float64{1e-12, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9} {
				got, want := atLeast(s, r, x), tailRef(s, r, x)
				if math.Abs(got-want) > 1e-12+1e-9*want {
					t.Errorf("P(Bin(%d, %g) ≥ %d) = %.17g, want %.17g", s, x, r, got, want)
				}
			}
		}
	}
	for _, c := range []struct {
		s, r int
		x    float64
		want float64
	}{{2, 0, 0.5, 1}, {2, 3, 0.5, 0}, {2, 1, 0, 0}, {2, 1, 1, 1}, {2, 2, 0.5, 0.25}} {
		if got := atLeast(c.s, c.r, c.x); got != c.want {
			t.Errorf("P(Bin(%d, %g) ≥ %d) = %g, want %g", c.s, c.x, c.r, got, c.want)
		}
	}
}

// TestRowKernelDeterministic: the same seed gives the same trajectory,
// round by round, on the rows and order-statistic rounds.
func TestRowKernelDeterministic(t *testing.T) {
	for _, name := range []string{"rows", "orderstat"} {
		d := rowFixtures(2)[name]
		rule := fixtureRule(name, rules.Median{})
		kernelTaken(t, name, d, rule)
		trajectory := func() [][]int64 {
			var out [][]int64
			NewCountEngineDist(d, rule, nil, 7, Options{
				Observer: func(round int, vals []Value, counts []int64) {
					row := append([]int64{int64(round)}, vals...)
					out = append(out, append(row, counts...))
				},
			}).Run()
			return out
		}
		a, b := trajectory(), trajectory()
		if len(a) < 2 {
			t.Fatalf("%s: run stopped after %d observations", name, len(a))
		}
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("%s: observation %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}
