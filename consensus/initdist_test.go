package consensus

import (
	"math"
	"testing"

	"repro/internal/assign"
	"repro/internal/initspec"
	"repro/rules"
)

// Differential tests for the count-native init builders: BuildInitDist
// must describe exactly the population that materializing with BuildInit
// and bucketing does — exactly for the deterministic kinds, in
// distribution for the seeded ones (the count-native uniform builder
// consumes its seed as one multinomial draw instead of n value draws, so
// at equal seed the realization differs; the distribution must not).

// TestBuildInitDistDeterministicKinds: exact equality for every kind
// whose initial state is a deterministic function of the spec.
func TestBuildInitDistDeterministicKinds(t *testing.T) {
	specs := []InitSpec{
		{Kind: "distinct", N: 300},
		{Kind: "twovalue", N: 100, NLow: 40, Low: 3, High: 9},
		{Kind: "twovalue", N: 100}, // defaults: n/2 split over {1, 2}
		{Kind: "blocks", Counts: []int64{5, 0, 12, 1}},
		{Kind: "evenblocks", N: 100, M: 7},
	}
	for _, s := range specs {
		d, err := BuildInitDist(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
		vals, err := BuildInit(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
		want := assign.Config(vals).Dist()
		if len(d.Vals) != len(want.Vals) {
			t.Fatalf("%s: support %d, want %d", s.Kind, len(d.Vals), len(want.Vals))
		}
		for i := range d.Vals {
			if d.Vals[i] != want.Vals[i] || d.Counts[i] != want.Counts[i] {
				t.Fatalf("%s bin %d: (%d, %d), want (%d, %d)", s.Kind, i, d.Vals[i], d.Counts[i], want.Vals[i], want.Counts[i])
			}
		}
		if k := initspec.Support(s); k > 0 && int64(len(d.Vals)) > k {
			t.Fatalf("%s: support bound %d below the real support %d", s.Kind, k, len(d.Vals))
		}
	}
}

// TestBuildInitDistUniform: the count-native uniform builder is one
// multinomial over m equiprobable values — every bin of both builds must
// sit within a 6σ band of n/m, and the builds within the two-sample band
// of each other.
func TestBuildInitDistUniform(t *testing.T) {
	const n, m = 1_000_000, 16
	s := InitSpec{Kind: "uniform", N: n, M: m, Seed: 5}
	d, err := BuildInitDist(s)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := BuildInit(s)
	if err != nil {
		t.Fatal(err)
	}
	want := assign.Config(vals).Dist()
	if len(d.Vals) != m || len(want.Vals) != m {
		t.Fatalf("support: count-native %d, bucketed %d, want %d (n ≫ m: every value drawn)", len(d.Vals), len(want.Vals), m)
	}
	p := 1.0 / m
	sigma := math.Sqrt(n * p * (1 - p))
	var total int64
	for i := range d.Vals {
		if d.Vals[i] != want.Vals[i] {
			t.Fatalf("bin %d: value %d vs bucketed %d", i, d.Vals[i], want.Vals[i])
		}
		total += d.Counts[i]
		if dev := math.Abs(float64(d.Counts[i]) - n*p); dev > 6*sigma {
			t.Fatalf("value %d: count %d deviates %.0f from %.0f (6σ = %.0f)", d.Vals[i], d.Counts[i], dev, n*p, 6*sigma)
		}
		if dev := math.Abs(float64(d.Counts[i] - want.Counts[i])); dev > 6*math.Sqrt2*sigma {
			t.Fatalf("value %d: count-native %d vs bucketed %d (6σ₂ = %.0f)", d.Vals[i], d.Counts[i], want.Counts[i], 6*math.Sqrt2*sigma)
		}
	}
	if total != n {
		t.Fatalf("total %d, want %d", total, n)
	}
}

// TestRunDistMatchesRun: for an explicit count-engine run, RunDist over
// the bucketed distribution and Run over the materialized vector are the
// same simulation — identical trajectories, not just distributions.
func TestRunDistMatchesRun(t *testing.T) {
	vals := EvenBlocks(3000, 5)
	cfg := Config{Rule: rules.Median{}, Seed: 11, Engine: EngineCount}
	d := assign.Config(vals).Dist()
	byDist := RunDist(cfg, d)
	cfg.Values = vals
	byVals := Run(cfg)
	if byDist.Rounds != byVals.Rounds || byDist.Winner != byVals.Winner || byDist.WinnerCount != byVals.WinnerCount {
		t.Fatalf("RunDist %+v vs Run %+v", byDist, byVals)
	}
}
