package multidim

import (
	"testing"

	"repro/internal/rng"
)

func TestCountEngineBuildsSortedDistribution(t *testing.T) {
	pts := []Point{{2, 1}, {1, 2}, {2, 1}, {1, 2}, {1, 2}, {3, 0}}
	e := NewCountEngine(pts, nil, 1, CountOptions{})
	tuples, counts := e.Dist()
	if e.N() != 6 || e.Dim() != 2 || e.Support() != 3 {
		t.Fatalf("shape: n=%d dim=%d support=%d", e.N(), e.Dim(), e.Support())
	}
	want := []Point{{1, 2}, {2, 1}, {3, 0}}
	wantCounts := []int64{3, 2, 1}
	for i := range want {
		if !tuples[i].Equal(want[i]) || counts[i] != wantCounts[i] {
			t.Fatalf("bin %d: %v x%d, want %v x%d", i, tuples[i], counts[i], want[i], wantCounts[i])
		}
	}
}

func TestCountEngineConvergesScalar(t *testing.T) {
	// d = 1 with a small value range: the count engine's home turf. The
	// dynamics must converge with full tuple validity, like the scalar
	// median rule.
	for seed := uint64(1); seed <= 5; seed++ {
		e := NewCountEngine(RandomPoints(2000, 1, 4, seed), nil, seed, CountOptions{MaxRounds: 2000})
		res := e.Run()
		if !res.Consensus {
			t.Fatalf("seed %d: no consensus in %d rounds", seed, res.Rounds)
		}
		if !res.TupleValid || !res.CoordValid {
			t.Fatalf("seed %d: scalar run must be valid, got %+v", seed, res)
		}
		if res.WinnerCount != 2000 {
			t.Fatalf("seed %d: winner holds %d/2000", seed, res.WinnerCount)
		}
	}
}

func TestCountEngineDeterministicInSeed(t *testing.T) {
	pts := RandomPoints(500, 2, 3, 9)
	a := NewCountEngine(pts, nil, 42, CountOptions{}).Run()
	b := NewCountEngine(pts, nil, 42, CountOptions{}).Run()
	if a.Rounds != b.Rounds || !a.Winner.Equal(b.Winner) || a.WinnerCount != b.WinnerCount {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestCountEngineConsensusIsFixedPoint(t *testing.T) {
	// A single-tuple start mirrors the per-process engine: one (no-op)
	// step, then the consensus stop.
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{3, 7}
	}
	e := NewCountEngine(pts, nil, 1, CountOptions{})
	res := e.Run()
	if !res.Consensus || res.Rounds != 1 || !res.Winner.Equal(Point{3, 7}) {
		t.Fatalf("fixed point mishandled: %+v", res)
	}
	if !res.TupleValid || !res.CoordValid {
		t.Fatalf("validity lost on fixed point: %+v", res)
	}
}

func TestCountEngineObserverCadence(t *testing.T) {
	var rounds []int
	e := NewCountEngine(RandomPoints(300, 2, 3, 5), nil, 5, CountOptions{
		MaxRounds: 500,
		Observer: func(round int, tuples []Point, counts []int64) {
			rounds = append(rounds, round)
			if len(tuples) != len(counts) || len(tuples) == 0 {
				t.Fatalf("round %d: ragged distribution (%d tuples, %d counts)", round, len(tuples), len(counts))
			}
		},
	})
	res := e.Run()
	if len(rounds) != res.Rounds {
		t.Fatalf("observer called %d times for %d rounds", len(rounds), res.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("observer round %d at position %d", r, i)
		}
	}
}

func TestCountEngineStateIsolation(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}, {3, 3}}
	e := NewCountEngine(pts, nil, 1, CountOptions{})
	pts[0][0] = 99
	tuples, _ := e.Dist()
	for _, p := range tuples {
		if p[0] == 99 {
			t.Fatal("count engine aliases caller storage")
		}
	}
}

func TestCountEnginePanics(t *testing.T) {
	assertPanics(t, "empty", func() { NewCountEngine(nil, nil, 1, CountOptions{}) })
	assertPanics(t, "zero-dim", func() { NewCountEngine([]Point{{}}, nil, 1, CountOptions{}) })
	assertPanics(t, "ragged", func() {
		NewCountEngine([]Point{{1, 2}, {1}}, nil, 1, CountOptions{})
	})
}

func TestDistPlurality(t *testing.T) {
	tuples := []Point{{1, 1}, {2, 2}, {3, 3}}
	counts := []int64{4, 4, 2}
	w, c := DistPlurality(tuples, counts)
	// First maximal count in sorted order wins: the smaller tuple.
	if !w.Equal(Point{1, 1}) || c != 4 {
		t.Fatalf("plurality %v x%d", w, c)
	}
}

// processOnlyAdversary implements Adversary but not CountAdversary, so
// auto-selection must keep it on the per-process engine.
type processOnlyAdversary struct{}

func (processOnlyAdversary) Budget(n int) int                                             { return 1 }
func (processOnlyAdversary) Corrupt(round int, state, allowed []Point, g *rng.Xoshiro256) {}

func TestPickEngine(t *testing.T) {
	countAdv := &NoiseAdversary{T: 1}
	cases := []struct {
		n, support int64
		adv        Adversary
		want       string
	}{
		{1000, 4, nil, EngineCount},
		{1000, 4, countAdv, EngineCount},                 // count-aware adversary keeps count
		{1000, 4, processOnlyAdversary{}, EngineProcess}, // process-only adversary forces per-process
		{100, 50, nil, EngineProcess},                    // support too large relative to n
		{64, 4, nil, EngineCount},                        // boundary: 4·16 = 64
		{63, 4, nil, EngineProcess},                      // just under the boundary
		{10, 10, nil, EngineProcess},                     // all-distinct worst case
		{1000, 0, nil, EngineProcess},                    // unknown support resolves to process
		{1 << 40, 1000, nil, EngineCount},                // huge n: no overflow in the bound check
	}
	for _, c := range cases {
		if got := PickEngine(c.n, c.support, c.adv); got != c.want {
			t.Errorf("PickEngine(%d, %d, %T) = %s, want %s", c.n, c.support, c.adv, got, c.want)
		}
	}
}

// TestCountEngineStepAllocs pins the count engine's zero-allocation round
// loop in both update regimes — the transition rows (n ≥ k³) and the
// per-sample mode (small n) — with the count-level noise adversary in the
// loop: after warmup, a steady-state Step must not touch the heap.
func TestCountEngineStepAllocs(t *testing.T) {
	tuples := []Point{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	for _, tc := range []struct {
		name string
		per  int64
	}{
		{"rows", 250_000_000}, // n = 10⁹ ≫ k³: transition rows
		{"sampled", 1},        // n = 4 < 2³: never rows
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := []int64{tc.per, tc.per, tc.per, tc.per}
			eng := NewCountEngineDist(tuples, counts, &NoiseAdversary{T: 2}, 1, CountOptions{})
			for i := 0; i < 8; i++ {
				eng.Step()
			}
			if avg := testing.AllocsPerRun(50, func() { eng.Step() }); avg != 0 {
				t.Fatalf("steady-state %s round allocates (%v allocs/round)", tc.name, avg)
			}
		})
	}
}
