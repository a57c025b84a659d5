package multidim

// Differential tests: the per-process Engine and the count-level
// CountEngine implement one protocol, so every invariant the model gives
// — population conservation, coordinate containment in the initial
// coordinate sets, convergence — must hold for both, and their round
// counts must agree in distribution. These tests are the contract that
// lets "engine": "auto" switch between them without changing what a spec
// means.

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// coordSets collects, per dimension, the set of initial coordinate values.
func coordSets(pts []Point) []map[int64]bool {
	d := len(pts[0])
	sets := make([]map[int64]bool, d)
	for j := range sets {
		sets[j] = make(map[int64]bool)
	}
	for _, p := range pts {
		for j, v := range p {
			sets[j][v] = true
		}
	}
	return sets
}

func TestDifferentialConservationAndCoordContainment(t *testing.T) {
	const n, d, m = 400, 2, 4
	pts := RandomPoints(n, d, m, 11)
	sets := coordSets(pts)

	checkPoint := func(t *testing.T, round int, p Point) {
		t.Helper()
		for j, v := range p {
			if !sets[j][v] {
				t.Fatalf("round %d: coordinate %d value %d not in the initial coordinate set", round, j, v)
			}
		}
	}

	// Count engine: every round must conserve the total population and
	// keep every live tuple's coordinates inside the initial per-dimension
	// value sets.
	ce := NewCountEngine(pts, nil, 21, CountOptions{
		MaxRounds: 2000,
		Observer: func(round int, tuples []Point, counts []int64) {
			var total int64
			for i, c := range counts {
				if c <= 0 {
					t.Fatalf("round %d: non-positive count %d", round, c)
				}
				total += c
				checkPoint(t, round, tuples[i])
			}
			if total != n {
				t.Fatalf("round %d: population %d, want %d", round, total, n)
			}
		},
	})
	if res := ce.Run(); !res.Consensus {
		t.Fatalf("count engine did not converge: %+v", res)
	}

	// Per-process engine: same invariants over the state vector.
	pe := NewEngine(pts, nil, 22, Options{
		MaxRounds: 2000,
		Observer: func(round int, state []Point) {
			if len(state) != n {
				t.Fatalf("round %d: %d processes, want %d", round, len(state), n)
			}
			for _, p := range state {
				checkPoint(t, round, p)
			}
		},
	})
	if res := pe.Run(); !res.Consensus {
		t.Fatalf("per-process engine did not converge: %+v", res)
	}
}

func TestDifferentialSingleTupleState(t *testing.T) {
	// A single-tuple start is deterministic: both engines must stop after
	// one (no-op) round at consensus on exactly that tuple.
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{5, -3, 8}
	}
	pres := NewEngine(pts, nil, 7, Options{}).Run()
	cres := NewCountEngine(pts, nil, 7, CountOptions{}).Run()
	for name, res := range map[string]Result{"process": pres, "count": cres} {
		if !res.Consensus || res.Rounds != 1 || !res.Winner.Equal(Point{5, -3, 8}) ||
			res.WinnerCount != 64 || !res.TupleValid || !res.CoordValid {
			t.Fatalf("%s engine on single-tuple state: %+v", name, res)
		}
	}
}

func TestDifferentialTwoTupleState(t *testing.T) {
	// Two-tuple starts: each coordinate runs the scalar two-value median
	// dynamics, so both engines must reach consensus, with every winner
	// coordinate drawn from the two initial tuples.
	a, b := Point{1, 10}, Point{4, 2}
	pts := make([]Point, 120)
	for i := range pts {
		if i < 60 {
			pts[i] = a.Clone()
		} else {
			pts[i] = b.Clone()
		}
	}
	sets := coordSets(pts)
	for seed := uint64(1); seed <= 5; seed++ {
		pres := NewEngine(pts, nil, seed, Options{MaxRounds: 4000}).Run()
		cres := NewCountEngine(pts, nil, seed, CountOptions{MaxRounds: 4000}).Run()
		for name, res := range map[string]Result{"process": pres, "count": cres} {
			if !res.Consensus {
				t.Fatalf("seed %d: %s engine did not converge: %+v", seed, name, res)
			}
			if !res.CoordValid {
				t.Fatalf("seed %d: %s engine lost coordinate validity: %+v", seed, name, res)
			}
			for j, v := range res.Winner {
				if !sets[j][v] {
					t.Fatalf("seed %d: %s winner coordinate %d = %d outside {%d, %d}",
						seed, name, j, v, a[j], b[j])
				}
			}
		}
	}
}

func TestDifferentialMeanRoundsAgree(t *testing.T) {
	// Statistical equivalence: over ≥30 seeds the engines' mean
	// convergence rounds must agree within the same tolerance the scalar
	// ball/count equivalence tests use. Different engines consume
	// randomness differently, so per-seed trajectories differ; the
	// distribution must not.
	const n, d, m, seeds = 600, 2, 4, 30
	var process, count []float64
	for seed := uint64(1); seed <= seeds; seed++ {
		pts := RandomPoints(n, d, m, seed)
		pr := NewEngine(pts, nil, seed, Options{MaxRounds: 4000}).Run()
		cr := NewCountEngine(pts, nil, seed+1000, CountOptions{MaxRounds: 4000}).Run()
		if !pr.Consensus || !cr.Consensus {
			t.Fatalf("seed %d: convergence disagreement: process %+v vs count %+v", seed, pr, cr)
		}
		process = append(process, float64(pr.Rounds))
		count = append(count, float64(cr.Rounds))
	}
	mp, mc := stats.Mean(process), stats.Mean(count)
	if math.Abs(mp-mc) > 0.35*(mp+mc)/2+2 {
		t.Fatalf("process %.2f vs count %.2f mean rounds", mp, mc)
	}
	t.Logf("mean rounds: process %.2f, count %.2f", mp, mc)
}

// TestDifferentialDistinctInitCounts: the count-native distinct builder
// must produce exactly the distribution that materializing the points and
// bucketing them does — distinct init is deterministic, so this is
// byte-for-byte equality, not a statistical check.
func TestDifferentialDistinctInitCounts(t *testing.T) {
	spec := InitSpec{Kind: "distinct", N: 500, D: 3}
	tuples, counts, err := BuildInitCounts(spec)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := BuildInit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantT, wantC := distOf(pts, 3)
	if len(tuples) != len(wantT) {
		t.Fatalf("support %d, want %d", len(tuples), len(wantT))
	}
	for i := range tuples {
		if !tuples[i].Equal(wantT[i]) || counts[i] != wantC[i] {
			t.Fatalf("bin %d: (%v, %d), want (%v, %d)", i, tuples[i], counts[i], wantT[i], wantC[i])
		}
	}
}

// TestDifferentialRandomInitCounts: the count-native random builder draws
// one multinomial over the m^d cells instead of n·d coordinate draws, so
// at equal seed the realizations differ — but the distributions must not.
// Both builds are multinomial(n, uniform over cells) samples; every cell
// of both must sit within a 6σ band of n/cells, and the two builds must
// agree with each other within the two-sample band.
func TestDifferentialRandomInitCounts(t *testing.T) {
	const n, d, m = 1_000_000, 2, 4
	cells := 16 // m^d
	spec := InitSpec{Kind: "random", N: n, D: d, M: m, Seed: 9}
	tuples, counts, err := BuildInitCounts(spec)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := BuildInit(spec)
	if err != nil {
		t.Fatal(err)
	}
	bTuples, bCounts := distOf(pts, d)
	if len(tuples) != cells || len(bTuples) != cells {
		t.Fatalf("support: count-native %d, bucketed %d, want %d (n ≫ cells: every cell occupied)", len(tuples), len(bTuples), cells)
	}
	p := 1.0 / float64(cells)
	sigma := math.Sqrt(n * p * (1 - p))
	var total int64
	for i := range tuples {
		if !tuples[i].Equal(bTuples[i]) {
			t.Fatalf("cell %d: %v vs bucketed %v", i, tuples[i], bTuples[i])
		}
		total += counts[i]
		if dev := math.Abs(float64(counts[i]) - n*p); dev > 6*sigma {
			t.Fatalf("cell %v: count-native count %d deviates %.0f from %0.f (6σ = %.0f)", tuples[i], counts[i], dev, n*p, 6*sigma)
		}
		// Independent draws of the same multinomial: the difference has
		// variance 2·n·p·(1-p).
		if dev := math.Abs(float64(counts[i] - bCounts[i])); dev > 6*math.Sqrt2*sigma {
			t.Fatalf("cell %v: count-native %d vs bucketed %d (6σ₂ = %.0f)", tuples[i], counts[i], bCounts[i], 6*math.Sqrt2*sigma)
		}
	}
	if total != n {
		t.Fatalf("count-native total %d, want %d", total, n)
	}
}

// TestDifferentialAdversaryMeanRounds: the count-level noise adversary
// must be the same strategy as the per-process one, just expressed as
// count moves — so over ≥30 seeds the mean first-consensus round of
// process-engine-with-Corrupt and count-engine-with-CorruptCounts runs
// must agree in distribution (adversarial runs never stop early; first
// consensus is read through the observers).
func TestDifferentialAdversaryMeanRounds(t *testing.T) {
	const n, d, m, seeds, maxRounds = 600, 2, 4, 30, 4000
	var process, count []float64
	for seed := uint64(1); seed <= seeds; seed++ {
		pts := RandomPoints(n, d, m, seed)
		first := maxRounds
		pr := NewEngine(pts, &NoiseAdversary{T: 1}, seed, Options{MaxRounds: maxRounds, Observer: func(round int, state []Point) {
			if first == maxRounds {
				if _, c, _ := Plurality(state); c == n {
					first = round
				}
			}
		}})
		pr.Run()
		if first == maxRounds {
			t.Fatalf("seed %d: process run never reached consensus", seed)
		}
		process = append(process, float64(first))

		first = maxRounds
		cr := NewCountEngine(pts, &NoiseAdversary{T: 1}, seed+1000, CountOptions{MaxRounds: maxRounds, Observer: func(round int, tuples []Point, counts []int64) {
			if first == maxRounds && len(tuples) == 1 {
				first = round
			}
		}})
		cr.Run()
		if first == maxRounds {
			t.Fatalf("seed %d: count run never reached consensus", seed)
		}
		count = append(count, float64(first))
	}
	mp, mc := stats.Mean(process), stats.Mean(count)
	if math.Abs(mp-mc) > 0.35*(mp+mc)/2+2 {
		t.Fatalf("process %.2f vs count %.2f mean first-consensus rounds", mp, mc)
	}
	t.Logf("mean first-consensus rounds under noise: process %.2f, count %.2f", mp, mc)
}

// skewedStart is 50 processes on (2,2) followed by 950 on (1,1): two
// distinct initial tuples with very unequal multiplicities, listed out of
// lexicographic order.
func skewedStart() []Point {
	pts := make([]Point, 1000)
	for i := range pts {
		if i < 50 {
			pts[i] = Point{2, 2}
		} else {
			pts[i] = Point{1, 1}
		}
	}
	return pts
}

// recordingAdversary records the allowed sets it is handed and corrupts
// nothing.
type recordingAdversary struct{ allowed [][]Point }

func (a *recordingAdversary) Budget(int) int { return 0 }

func (a *recordingAdversary) Corrupt(round int, state, allowed []Point, g *rng.Xoshiro256) {
	a.allowed = append(a.allowed, allowed)
}

// TestEngineAdversaryAllowedIsDistinctInitial: the per-process engine
// hands its adversary the distinct initial tuples in lexicographic order,
// exactly the set the count engine hands CorruptCounts — not all n initial
// points, which would weight an adversary's choice by multiplicity.
func TestEngineAdversaryAllowedIsDistinctInitial(t *testing.T) {
	adv := &recordingAdversary{}
	NewEngine(skewedStart(), adv, 1, Options{MaxRounds: 3}).Run()
	if len(adv.allowed) != 3 {
		t.Fatalf("adversary called %d times, want 3", len(adv.allowed))
	}
	want := []Point{{1, 1}, {2, 2}}
	for round, allowed := range adv.allowed {
		if len(allowed) != len(want) {
			t.Fatalf("round %d: %d allowed tuples, want %d distinct initial tuples", round, len(allowed), len(want))
		}
		for i := range want {
			if !allowed[i].Equal(want[i]) {
				t.Fatalf("round %d: allowed %v, want %v", round, allowed, want)
			}
		}
	}
}

// TestDifferentialNoiseDissenters: under the noise adversary both engines
// draw the replacement tuple uniformly from the distinct initial tuples,
// so on a skewed start the mean number of processes off the majority
// tuple per round must agree. (Weighting the draw by multiplicity would
// cut the process engine's figure about tenfold here.)
func TestDifferentialNoiseDissenters(t *testing.T) {
	const n, seeds, maxRounds, budget = 1000, 20, 400, 20
	majority := Point{1, 1}
	var process, count float64
	for seed := uint64(1); seed <= seeds; seed++ {
		NewEngine(skewedStart(), &NoiseAdversary{T: budget}, seed, Options{MaxRounds: maxRounds, Observer: func(round int, state []Point) {
			for _, p := range state {
				if !p.Equal(majority) {
					process++
				}
			}
		}}).Run()
		NewCountEngine(skewedStart(), &NoiseAdversary{T: budget}, seed, CountOptions{MaxRounds: maxRounds, Observer: func(round int, tuples []Point, counts []int64) {
			var held int64
			for i, p := range tuples {
				if p.Equal(majority) {
					held = counts[i]
				}
			}
			count += float64(n - held)
		}}).Run()
	}
	process /= seeds * maxRounds
	count /= seeds * maxRounds
	t.Logf("mean dissenters per round under noise: process %.3f, count %.3f", process, count)
	if math.Abs(process-count) > 0.25*(process+count)/2 {
		t.Fatalf("process %.3f vs count %.3f mean dissenters per round", process, count)
	}
}
