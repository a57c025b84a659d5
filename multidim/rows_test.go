package multidim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/randx"
)

// The exactness gate for the count engine's round, as in internal/core:
// from a fixed tuple distribution, the mean next-round count of every
// tuple over many seeded one-round steps must sit inside a 5σ band of an
// oracle computed without the engine. The large fixtures run the
// transition rows (randx.Rows), the small ones sample every ball.

// rowDist is a tuple distribution fixture.
type rowDist struct {
	tuples []Point
	counts []int64
}

func (d rowDist) scaled(f int64) rowDist {
	out := rowDist{tuples: d.tuples, counts: make([]int64, len(d.counts))}
	for i, c := range d.counts {
		out.counts[i] = c * f
	}
	return out
}

func (d rowDist) n() int64 {
	var n int64
	for _, c := range d.counts {
		n += c
	}
	return n
}

// rowScales are the fixture sizes and the round each must run.
var rowScales = []struct {
	name  string
	scale int64
	rows  bool
}{
	{"sampled", 1, false},
	{"rows", 7, true}, // the smallest multiple of both fixtures at n ≥ k³
}

// medianRows1D is the order-statistics closed form for d = 1 (the
// coordinate median is the scalar median): a ball at v moves to u < v
// with F(u)² − F(u⁻)² and to u > v with (1−F(u⁻))² − (1−F(u))². Tuples
// must be sorted.
func medianRows1D(d rowDist) map[string]map[string]float64 {
	n := float64(d.n())
	cdf := make([]float64, len(d.counts)+1)
	for i, c := range d.counts {
		cdf[i+1] = cdf[i] + float64(c)/n
	}
	rows := map[string]map[string]float64{}
	for vi, v := range d.tuples {
		row := map[string]float64{}
		stay := 1.0
		for ui, u := range d.tuples {
			var p float64
			switch {
			case ui < vi:
				p = cdf[ui+1]*cdf[ui+1] - cdf[ui]*cdf[ui]
			case ui > vi:
				p = (1-cdf[ui])*(1-cdf[ui]) - (1-cdf[ui+1])*(1-cdf[ui+1])
			default:
				continue
			}
			row[fmt.Sprint(u)] = p
			stay -= p
		}
		row[fmt.Sprint(v)] = stay
		rows[fmt.Sprint(v)] = row
	}
	return rows
}

// bruteRows sums every ordered peer pair's probability into the row of
// its coordinate-wise median.
func bruteRows(d rowDist) map[string]map[string]float64 {
	n := float64(d.n())
	rows := map[string]map[string]float64{}
	for _, v := range d.tuples {
		row := map[string]float64{}
		for ai, a := range d.tuples {
			for bi, b := range d.tuples {
				m := make(Point, len(v))
				CoordMedian(m, v, a, b)
				row[fmt.Sprint(m)] += float64(d.counts[ai]) / n * float64(d.counts[bi]) / n
			}
		}
		rows[fmt.Sprint(v)] = row
	}
	return rows
}

// checkNextCounts steps `trials` fresh engines once from d (seeds
// 1..trials) and requires each tuple's mean next count to lie within 5σ of
// Σ_v c_v·P(v→u), σ² = Σ_v c_v·P(v→u)(1−P(v→u)) / trials.
func checkNextCounts(t *testing.T, d rowDist, rows map[string]map[string]float64, trials int) {
	t.Helper()
	mean, variance := map[string]float64{}, map[string]float64{}
	for vi, v := range d.tuples {
		c := float64(d.counts[vi])
		for u, p := range rows[fmt.Sprint(v)] {
			mean[u] += c * p
			variance[u] += c * p * (1 - p)
		}
	}
	sum := map[string]float64{}
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		e := NewCountEngineDist(d.tuples, d.counts, nil, seed, CountOptions{})
		e.Step()
		tuples, counts := e.Dist()
		var total int64
		for i, u := range tuples {
			key := fmt.Sprint(u)
			if mean[key] == 0 {
				t.Fatalf("seed %d: %d balls moved to %s, which no row reaches", seed, counts[i], key)
			}
			sum[key] += float64(counts[i])
			total += counts[i]
		}
		if total != d.n() {
			t.Fatalf("seed %d: %d balls after the round, want %d", seed, total, d.n())
		}
	}
	keys := make([]string, 0, len(mean))
	for u := range mean {
		keys = append(keys, u)
	}
	sort.Strings(keys)
	for _, u := range keys {
		got := sum[u] / float64(trials)
		band := 5*math.Sqrt(variance[u]/float64(trials)) + 1e-9
		if math.Abs(got-mean[u]) > band {
			t.Errorf("tuple %s: mean next count %.4f outside %.4f ± %.4f", u, got, mean[u], band)
		}
	}
}

// TestRowKernelMatchesMedianClosedForm: d = 1 against the scalar median's
// order-statistics closed form.
func TestRowKernelMatchesMedianClosedForm(t *testing.T) {
	base := rowDist{
		tuples: []Point{{1}, {2}, {4}, {7}, {9}},
		counts: []int64{3, 5, 1, 6, 5},
	}
	for _, sc := range rowScales {
		t.Run(sc.name, func(t *testing.T) {
			d := base.scaled(sc.scale)
			if got := randx.RowsCheaper(d.n(), len(d.tuples), 2); got != sc.rows {
				t.Fatalf("n=%d k=%d runs rows=%v", d.n(), len(d.tuples), got)
			}
			checkNextCounts(t, d, medianRows1D(d), 2000)
		})
	}
}

// TestRowKernelMatchesBruteForceRows: d = 2, where the coordinate-wise
// median can create tuples outside the support, against brute-force rows.
func TestRowKernelMatchesBruteForceRows(t *testing.T) {
	base := rowDist{
		tuples: []Point{{1, 3}, {2, 1}, {2, 5}, {4, 2}},
		counts: []int64{4, 7, 2, 5},
	}
	for _, sc := range rowScales {
		t.Run(sc.name, func(t *testing.T) {
			d := base.scaled(sc.scale)
			if got := randx.RowsCheaper(d.n(), len(d.tuples), 2); got != sc.rows {
				t.Fatalf("n=%d k=%d runs rows=%v", d.n(), len(d.tuples), got)
			}
			checkNextCounts(t, d, bruteRows(d), 2000)
		})
	}
}

// TestRowKernelDeterministic: the same seed gives the same trajectory,
// round by round, on the rows path.
func TestRowKernelDeterministic(t *testing.T) {
	tuples := []Point{{1, 3}, {2, 1}, {2, 5}, {4, 2}}
	counts := []int64{4000, 7000, 2000, 5000}
	trajectory := func() [][]int64 {
		var out [][]int64
		NewCountEngineDist(tuples, counts, nil, 7, CountOptions{
			Observer: func(round int, ts []Point, cs []int64) {
				row := []int64{int64(round)}
				for _, p := range ts {
					row = append(row, p...)
				}
				out = append(out, append(row, cs...))
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
