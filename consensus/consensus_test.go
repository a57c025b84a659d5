package consensus

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/adversary"
	"repro/rules"
)

func TestRunQuickstart(t *testing.T) {
	res := Run(Config{
		Values: AllDistinct(1000),
		Rule:   rules.Median{},
		Seed:   1,
	})
	if res.Reason != StopConsensus {
		t.Fatalf("%+v", res)
	}
	if res.Winner < 1 || res.Winner > 1000 {
		t.Fatalf("validity: winner %d", res.Winner)
	}
	if res.WinnerCount != 1000 {
		t.Fatalf("winner count %d", res.WinnerCount)
	}
}

func TestRunEachEngineConverges(t *testing.T) {
	for _, eng := range []Engine{EngineBall, EngineCount} {
		res := Run(Config{
			Values: EvenBlocks(300, 3),
			Rule:   rules.Median{},
			Seed:   7,
			Engine: eng,
		})
		if res.Reason != StopConsensus {
			t.Fatalf("engine %d: %+v", eng, res)
		}
	}
	res := Run(Config{
		Values: TwoValue(300, 150, 1, 2),
		Rule:   rules.Median{},
		Seed:   7,
		Engine: EngineTwoBin,
	})
	if res.Reason != StopConsensus {
		t.Fatalf("two-bin: %+v", res)
	}
}

// TestRunAutoPicksEngine: auto runs on the count engine whatever the
// population, rule or observer, unless the adversary has no count view;
// then it runs on the ball engine. Small runs must equal the wanted
// engine's run at equal seed, with and without an observer; the median
// spec's admission size shows the same choice from n = 2 to 2⁴⁰ (the
// count engine holds the two values, the ball engine all n).
func TestRunAutoPicksEngine(t *testing.T) {
	observe := func(int, []Value, []int64) {}
	for _, tc := range []struct {
		adv  string
		want Engine
	}{
		{"", EngineCount},
		{"balancer", EngineCount},        // count, ball and post-round views
		{"median-splitter", EngineCount}, // count view only
		{"flipper", EngineBall},          // ball view only
	} {
		for _, n := range []int{2, 100, 1 << 16, 1 << 40} {
			for _, rule := range []string{"median", "majority", "mean", "minimum", "voter"} {
				spec := Spec{Init: InitSpec{Kind: "twovalue", N: n}, Rule: rules.Ref{Name: rule}}
				if tc.adv != "" {
					spec.Adversary = &adversary.Ref{Name: tc.adv, Budget: adversary.BudgetSpec{Kind: "fixed", Factor: 1}}
				}
				spec.Normalize()
				want := int64(n)
				if tc.want == EngineCount && n > 2 {
					want = 2
				}
				if got := spec.MaterializedSize(); got != want {
					t.Fatalf("adversary %q, n=%d, rule %s: materialized size %d, want %d", tc.adv, n, rule, got, want)
				}
				if n > 100 {
					continue
				}
				d, err := BuildInitDist(spec.Init)
				if err != nil {
					t.Fatal(err)
				}
				for _, obs := range []func(int, []Value, []int64){nil, observe} {
					run := func(e Engine) Result {
						cfg, err := spec.components(50)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Engine, cfg.Seed, cfg.Observer = e, 7, obs
						return RunDist(cfg, d)
					}
					if got, want := run(EngineAuto), run(tc.want); got != want {
						t.Fatalf("adversary %q, n=%d, rule %s, observer %v: auto gave %v, %s gives %v", tc.adv, n, rule, obs != nil, got, tc.want, want)
					}
				}
			}
		}
	}
	for _, e := range []Engine{EngineBall, EngineCount, EngineTwoBin} {
		if got := pick(e, nil); got != e {
			t.Fatalf("explicit %s resolved to %s", e, got)
		}
	}
}

// TestRunAutoPicksTwoBin: on a two-value start, Run's value path under
// auto gives what twobin gives (the count engine on at most two values)
// at equal seed, for a median-like and a non-median rule, with and
// without an observer. A ball-only adversary still forces the ball engine.
func TestRunAutoPicksTwoBin(t *testing.T) {
	if e := pick(EngineAuto, nil); e != EngineCount {
		t.Fatalf("picked %s, want count", e)
	}
	vals := TwoValue(100, 40, 1, 2)
	for _, rule := range []Rule{rules.Median{}, rules.Mean{}} {
		for _, obs := range []func(int, []Value, []int64){nil, func(int, []Value, []int64) {}} {
			run := func(e Engine) Result {
				return Run(Config{Values: vals, Rule: rule, Seed: 3, Engine: e, Observer: obs})
			}
			if got, want := run(EngineAuto), run(EngineTwoBin); got != want {
				t.Fatalf("rule %s, observer %v: auto gave %v, twobin gives %v", rule.Name(), obs != nil, got, want)
			}
		}
	}
	probe := adversary.NewFunc("x", adversary.Fixed(1), func(int, []Value, []Value, Rand) {})
	if e := pick(EngineAuto, probe); e != EngineBall {
		t.Fatalf("picked %s, want ball for a ball-only adversary", e)
	}
}

// TestRunAutoLargePopulationUsesCount: a five-value start at n = 2¹⁶
// runs on the count engine under auto: the same Result and the same
// per-round counts as the count engine at equal seed.
func TestRunAutoLargePopulationUsesCount(t *testing.T) {
	vals := EvenBlocks(1<<16, 5)
	run := func(e Engine) (Result, [][]int64) {
		var stream [][]int64
		res := Run(Config{Values: vals, Rule: rules.Median{}, Seed: 5, Engine: e,
			Observer: func(_ int, _ []Value, counts []int64) {
				stream = append(stream, append([]int64(nil), counts...))
			}})
		return res, stream
	}
	got, gotStream := run(EngineAuto)
	want, wantStream := run(EngineCount)
	if got != want {
		t.Fatalf("auto gave %v, count gives %v", got, want)
	}
	if len(gotStream) != len(wantStream) {
		t.Fatalf("auto observed %d rounds, count %d", len(gotStream), len(wantStream))
	}
	for r := range gotStream {
		if !slices.Equal(gotStream[r], wantStream[r]) {
			t.Fatalf("round %d: auto counts %v, count engine %v", r, gotStream[r], wantStream[r])
		}
	}
}

func TestRunTwoBinRejectsManyValues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{Values: EvenBlocks(100, 3), Rule: rules.Median{}, Engine: EngineTwoBin})
}

func TestRunTwoBinDegenerateSingleValue(t *testing.T) {
	res := Run(Config{Values: []Value{7, 7, 7}, Rule: rules.Median{}, Engine: EngineTwoBin, Seed: 2})
	if res.Reason != StopConsensus || res.Winner != 7 {
		t.Fatalf("%+v", res)
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty values: expected panic")
			}
		}()
		Run(Config{Rule: rules.Median{}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rule: expected panic")
			}
		}()
		Run(Config{Values: AllDistinct(5)})
	}()
}

func TestRunWithAdversaryAlmostStable(t *testing.T) {
	adv := adversary.NewRandomNoise(adversary.Sqrt(1))
	res := Run(Config{
		Values:      TwoValue(2500, 500, 1, 2),
		Rule:        rules.Median{},
		Adversary:   adv,
		Seed:        5,
		AlmostSlack: 150, // ~3T
		MaxRounds:   5000,
	})
	if res.Reason != StopAlmostStable {
		t.Fatalf("%+v", res)
	}
	if res.WinnerCount < 2350 {
		t.Fatalf("winner count %d", res.WinnerCount)
	}
}

func TestRunObserver(t *testing.T) {
	rounds := 0
	res := Run(Config{
		Values: EvenBlocks(200, 2),
		Rule:   rules.Median{},
		Seed:   9,
		Engine: EngineBall,
		Observer: func(round int, vals []Value, counts []int64) {
			rounds++
		},
	})
	if rounds != res.Rounds+1 {
		t.Fatalf("observer saw %d rounds for result %d", rounds, res.Rounds)
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	a := UniformRandom(100, 5, 42)
	b := UniformRandom(100, 5, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
		if a[i] < 1 || a[i] > 5 {
			t.Fatalf("value %d out of range", a[i])
		}
	}
}

func TestBlocksAndAgreement(t *testing.T) {
	vals := Blocks([]int64{3, 0, 2})
	v, c := Agreement(vals)
	if v != 1 || c != 3 {
		t.Fatalf("agreement (%d, %d)", v, c)
	}
	if IsConsensus(vals) {
		t.Fatal("false consensus")
	}
	if !IsConsensus([]Value{4, 4}) {
		t.Fatal("missed consensus")
	}
}

func TestAgreementEmpty(t *testing.T) {
	v, c := Agreement(nil)
	if v != 0 || c != 0 {
		t.Fatalf("(%d, %d)", v, c)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Rounds: 12, Reason: StopConsensus, Winner: 7, WinnerCount: 100}
	s := r.String()
	if !strings.Contains(s, "consensus") || !strings.Contains(s, "12") {
		t.Fatalf("%q", s)
	}
}

// The paper's headline: convergence rounds grow logarithmically in n. Fit on
// three decades and demand a positive slope with near-linear fit quality in
// ln n. (Full-scale fits live in the benchmark harness; this is a smoke
// version.)
func TestLogNScalingSmoke(t *testing.T) {
	ns := []int{100, 1000, 10000}
	var xs, ys []float64
	for _, n := range ns {
		var total float64
		const reps = 5
		for s := uint64(0); s < reps; s++ {
			res := Run(Config{
				Values: TwoValue(n, n/2, 1, 2),
				Rule:   rules.Median{},
				Seed:   s,
				Engine: EngineTwoBin,
			})
			total += float64(res.Rounds)
		}
		xs = append(xs, math.Log(float64(n)))
		ys = append(ys, total/reps)
	}
	// Rounds must increase with n but sublinearly: ratio of means across
	// two decades far below the 100x population ratio.
	if ys[2] <= ys[0] {
		t.Fatalf("rounds not increasing: %v", ys)
	}
	if ys[2] > ys[0]*10 {
		t.Fatalf("rounds grew superlogarithmically: %v", ys)
	}
	_ = xs
}
