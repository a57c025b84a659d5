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

// The exactness gate for the count engine's round: from a fixed
// distribution, the mean next-round count of every value over many seeded
// one-round steps must sit inside a 5σ band of an oracle computed without
// the engine. Seeds are fixed, so a failure is a biased round, never a
// flake. The "rows" fixture is the smallest multiple of the base counts
// that runs the transition rows (randx.Rows), so a bias of one ball in a
// weight still shows; the "sampled" one samples every ball. Both must be
// exact.
var rowFixtureVals = []Value{1, 2, 4, 7, 9}
var rowFixtureCounts = []int64{3, 5, 1, 6, 5} // n = 20 < 5^(s+1) for s ≥ 1

// rowFixtures returns the sampled and rows fixtures for s samples.
func rowFixtures(s int) map[string]assign.Dist {
	rowsN := int64(math.Pow(float64(len(rowFixtureVals)), float64(s+1)))
	out := map[string]assign.Dist{}
	for name, scale := range map[string]int64{"sampled": 1, "rows": (rowsN + 19) / 20} {
		counts := make([]int64, len(rowFixtureCounts))
		for i, c := range rowFixtureCounts {
			counts[i] = c * scale
		}
		out[name] = assign.Dist{Vals: rowFixtureVals, Counts: counts}
	}
	return out
}

// rowsTaken checks that a fixture runs the round it is named after.
func rowsTaken(t *testing.T, name string, d assign.Dist, s int) {
	t.Helper()
	if rows := randx.RowsCheaper(d.N(), len(d.Vals), s); rows != (name == "rows") {
		t.Fatalf("fixture %s (n=%d, k=%d, s=%d) runs rows=%v", name, d.N(), len(d.Vals), s, rows)
	}
}

// medianRows is the order-statistics closed form of the median rule's
// transition rows: with F the distribution function of p, a ball at v
// moves to u < v with probability F(u)² − F(u⁻)² (both samples below v,
// the larger at u) and to u > v with (1−F(u⁻))² − (1−F(u))².
func medianRows(d assign.Dist) map[Value]map[Value]float64 {
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
				p = cdf[ui+1]*cdf[ui+1] - cdf[ui]*cdf[ui]
			case ui > vi:
				p = (1-cdf[ui])*(1-cdf[ui]) - (1-cdf[ui+1])*(1-cdf[ui+1])
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
	for _, name := range []string{"sampled", "rows"} {
		t.Run(name, func(t *testing.T) {
			d := rowFixtures(2)[name]
			rowsTaken(t, name, d, 2)
			checkNextCounts(t, d, medianRows(d), 2000, countStep(d, rules.Median{}))
		})
	}
}

// TestRowKernelMatchesBruteForceRows gates the round for rules with other
// sample counts and output sets against brute-force rows: minimum (s = 1),
// mean (s = 2, creates values outside the support) and median-4choices
// (s = 4).
func TestRowKernelMatchesBruteForceRows(t *testing.T) {
	for _, rule := range []model.Rule{rules.Minimum{}, rules.Mean{}, rules.NewKMedian(2)} {
		for _, name := range []string{"sampled", "rows"} {
			t.Run(fmt.Sprintf("%s/%s", rule.Name(), name), func(t *testing.T) {
				d := rowFixtures(rule.Samples())[name]
				rowsTaken(t, name, d, rule.Samples())
				checkNextCounts(t, d, bruteRows(d, rule), 1000, countStep(d, rule))
			})
		}
	}
}

// TestRowKernelDeterministic: the same seed gives the same trajectory,
// round by round, on the rows path.
func TestRowKernelDeterministic(t *testing.T) {
	d := rowFixtures(2)["rows"]
	trajectory := func() [][]int64 {
		var out [][]int64
		NewCountEngineDist(d, rules.Median{}, nil, 7, Options{
			Observer: func(round int, vals []Value, counts []int64) {
				row := append([]int64{int64(round)}, vals...)
				out = append(out, append(row, counts...))
			},
		}).Run()
		return out
	}
	a, b := trajectory(), trajectory()
	if len(a) < 2 {
		t.Fatalf("run stopped after %d observations", len(a))
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("observation %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
