package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/adversary"
	"repro/internal/assign"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/rules"
)

func TestBallEngineConsensusFixedPoint(t *testing.T) {
	cfg := assign.Config{5, 5, 5, 5}
	e := NewBallEngine(cfg, rules.Median{}, nil, 1, Options{})
	res := e.Run()
	if res.Reason != model.StopConsensus || res.Rounds != 0 || res.Winner != 5 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestBallEngineMedianConverges(t *testing.T) {
	cfg := assign.AllDistinct(500)
	e := NewBallEngine(cfg, rules.Median{}, nil, 42, Options{MaxRounds: 2000})
	res := e.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Winner < 1 || res.Winner > 500 {
		t.Fatalf("winner %d violates validity", res.Winner)
	}
	if res.Rounds < 2 || res.Rounds > 200 {
		t.Fatalf("implausible round count %d for n=500", res.Rounds)
	}
}

// Validity: without an adversary the median rule can never create a value —
// every intermediate state's support is a subset of the initial support.
func TestBallEngineValidityInvariant(t *testing.T) {
	cfg := assign.Uniform(300, 9, newTestRng(7))
	initial := cfg.ValueSet()
	e := NewBallEngine(cfg, rules.Median{}, nil, 99, Options{})
	for r := 0; r < 50; r++ {
		e.Step()
		for i, v := range e.State() {
			if _, ok := initial[v]; !ok {
				t.Fatalf("round %d ball %d holds non-initial value %d", r, i, v)
			}
		}
	}
}

// The mean rule, by contrast, creates values outside the initial support
// (the paper's validity objection to [17]).
func TestMeanRuleViolatesValidity(t *testing.T) {
	cfg := assign.TwoValue(400, 200, 0, 900)
	initial := cfg.ValueSet()
	e := NewBallEngine(cfg, rules.Mean{}, nil, 5, Options{MaxRounds: 300})
	res := e.Run()
	if _, ok := initial[res.Winner]; ok && (res.Winner == 0 || res.Winner == 900) {
		// With two far-apart values and a balanced split, the mean rule
		// should settle strictly between them.
		t.Fatalf("mean rule unexpectedly preserved validity: winner %d", res.Winner)
	}
}

func TestBallEngineMinimumRuleConverges(t *testing.T) {
	cfg := assign.AllDistinct(300)
	e := NewBallEngine(cfg, rules.Minimum{}, nil, 3, Options{MaxRounds: 1000})
	res := e.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("minimum rule did not converge: %+v", res)
	}
	if res.Winner != 1 {
		t.Fatalf("minimum rule converged to %d, want 1", res.Winner)
	}
}

func TestBallEngineMaximumRuleConverges(t *testing.T) {
	cfg := assign.AllDistinct(300)
	e := NewBallEngine(cfg, rules.Maximum{}, nil, 4, Options{MaxRounds: 1000})
	res := e.Run()
	if res.Reason != model.StopConsensus || res.Winner != 300 {
		t.Fatalf("maximum rule: %+v", res)
	}
}

func TestBallEngineDeterministic(t *testing.T) {
	cfg := assign.AllDistinct(200)
	a := NewBallEngine(cfg, rules.Median{}, nil, 77, Options{}).Run()
	b := NewBallEngine(cfg, rules.Median{}, nil, 77, Options{}).Run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := NewBallEngine(cfg, rules.Median{}, nil, 78, Options{}).Run()
	if a == c && a.Rounds == c.Rounds && a.Winner == c.Winner {
		// Different seeds *may* coincide; only flag exact full equality of
		// all fields as suspicious when rounds are also equal. Tolerate.
		t.Logf("note: seeds 77 and 78 produced identical results %+v", a)
	}
}

func TestBallEngineParallelMatchesSequentialStatistically(t *testing.T) {
	// Parallel execution uses different RNG streams, so trajectories
	// differ; convergence-round distributions must agree.
	cfg := assign.EvenBlocks(400, 4)
	var seqRounds, parRounds []float64
	for s := uint64(0); s < 20; s++ {
		seqRounds = append(seqRounds, float64(NewBallEngine(cfg, rules.Median{}, nil, s, Options{}).Run().Rounds))
		parRounds = append(parRounds, float64(NewBallEngine(cfg, rules.Median{}, nil, s, Options{Workers: 4}).Run().Rounds))
	}
	ms, mp := stats.Mean(seqRounds), stats.Mean(parRounds)
	if math.Abs(ms-mp) > 0.5*(ms+mp)/2+3 {
		t.Fatalf("sequential %.2f vs parallel %.2f mean rounds", ms, mp)
	}
}

func TestBallEngineParallelDeterministicPerWorkerCount(t *testing.T) {
	cfg := assign.AllDistinct(128)
	a := NewBallEngine(cfg, rules.Median{}, nil, 5, Options{Workers: 4}).Run()
	b := NewBallEngine(cfg, rules.Median{}, nil, 5, Options{Workers: 4}).Run()
	if a != b {
		t.Fatalf("parallel not reproducible: %+v vs %+v", a, b)
	}
}

func TestBallEngineInPlaceAblation(t *testing.T) {
	cfg := assign.AllDistinct(200)
	e := NewBallEngine(cfg, rules.Median{}, nil, 11, Options{InPlace: true, MaxRounds: 2000})
	res := e.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("in-place ablation did not converge: %+v", res)
	}
}

func TestBallEngineObserverCalledEveryRound(t *testing.T) {
	cfg := assign.TwoValue(100, 50, 1, 2)
	var calls []int
	var lastTotal int64
	e := NewBallEngine(cfg, rules.Median{}, nil, 9, Options{
		Observer: func(round int, vals []Value, counts []int64) {
			calls = append(calls, round)
			lastTotal = 0
			for _, c := range counts {
				lastTotal += c
			}
		},
	})
	res := e.Run()
	if len(calls) != res.Rounds+1 {
		t.Fatalf("observer called %d times for %d rounds", len(calls), res.Rounds)
	}
	if calls[0] != 0 || calls[len(calls)-1] != res.Rounds {
		t.Fatalf("observer rounds %v", calls)
	}
	if lastTotal != 100 {
		t.Fatalf("counts sum %d, want 100", lastTotal)
	}
}

func TestBallEnginePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty cfg: expected panic")
			}
		}()
		NewBallEngine(nil, rules.Median{}, nil, 1, Options{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rule: expected panic")
			}
		}()
		NewBallEngine(assign.AllDistinct(3), nil, nil, 1, Options{})
	}()
}

func TestAlmostStableStop(t *testing.T) {
	// Hider pins 5 balls at value 1 forever; full consensus is impossible,
	// but almost-stable (slack >= 5) must trigger.
	cfg := assign.TwoValue(300, 30, 1, 2)
	adv := adversary.NewHider(adversary.Fixed(5), 1)
	e := NewBallEngine(cfg, rules.Median{}, adv, 13, Options{
		AlmostSlack: 10, Window: 5, MaxRounds: 3000,
	})
	res := e.Run()
	if res.Reason != model.StopAlmostStable {
		t.Fatalf("expected almost-stable, got %+v", res)
	}
	if res.Winner != 2 {
		t.Fatalf("winner %d, want the majority value 2", res.Winner)
	}
	if res.WinnerCount < 290 {
		t.Fatalf("winner count %d too small", res.WinnerCount)
	}
}

func TestStabilityTrackerWindowResets(t *testing.T) {
	tr := newStabilityTracker(100, false, Options{AlmostSlack: 5, Window: 3})
	// Two good rounds, then a bad one, then three good: stop at the third.
	if _, stop := tr.observe(0, 7, 96); stop {
		t.Fatal("stopped too early")
	}
	if _, stop := tr.observe(1, 7, 97); stop {
		t.Fatal("stopped too early")
	}
	if _, stop := tr.observe(2, 7, 90); stop {
		t.Fatal("stopped on bad round")
	}
	if _, stop := tr.observe(3, 7, 96); stop {
		t.Fatal("window did not reset")
	}
	if _, stop := tr.observe(4, 7, 96); stop {
		t.Fatal("window too short")
	}
	reason, stop := tr.observe(5, 7, 96)
	if !stop || reason != model.StopAlmostStable {
		t.Fatalf("expected almost-stable stop, got %v %v", reason, stop)
	}
	if tr.since != 3 {
		t.Fatalf("since = %d, want 3", tr.since)
	}
}

func TestStabilityTrackerWinnerChangeResets(t *testing.T) {
	tr := newStabilityTracker(100, false, Options{AlmostSlack: 5, Window: 3})
	tr.observe(0, 7, 96)
	tr.observe(1, 8, 96) // winner switched: run restarts at 1
	tr.observe(2, 8, 96)
	reason, stop := tr.observe(3, 8, 96)
	if !stop || reason != model.StopAlmostStable {
		t.Fatalf("expected stop, got %v %v", reason, stop)
	}
	if tr.since != 1 {
		t.Fatalf("since = %d, want 1", tr.since)
	}
}

func TestCountEngineMatchesBallEngineStatistically(t *testing.T) {
	cfg := assign.EvenBlocks(600, 3)
	var ball, count []float64
	for s := uint64(0); s < 25; s++ {
		ball = append(ball, float64(NewBallEngine(cfg, rules.Median{}, nil, s, Options{}).Run().Rounds))
		count = append(count, float64(NewCountEngine(cfg, rules.Median{}, nil, s+1000, Options{}).Run().Rounds))
	}
	mb, mc := stats.Mean(ball), stats.Mean(count)
	if math.Abs(mb-mc) > 0.35*(mb+mc)/2+2 {
		t.Fatalf("ball %.2f vs count %.2f mean rounds", mb, mc)
	}
}

func TestCountEngineConservesBalls(t *testing.T) {
	cfg := assign.Uniform(500, 11, newTestRng(3))
	e := NewCountEngine(cfg, rules.Median{}, nil, 21, Options{})
	for r := 0; r < 40; r++ {
		e.Step()
		_, counts := e.Dist()
		var total int64
		for _, c := range counts {
			total += c
		}
		if total != 500 {
			t.Fatalf("round %d: %d balls", r, total)
		}
	}
}

func TestCountEngineConverges(t *testing.T) {
	cfg := assign.AllDistinct(400)
	res := NewCountEngine(cfg, rules.Median{}, nil, 8, Options{MaxRounds: 2000}).Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("count engine did not converge: %+v", res)
	}
	if res.Winner < 1 || res.Winner > 400 {
		t.Fatalf("validity violated: winner %d", res.Winner)
	}
}

func TestCountEngineWithBalancerStallsThenReleased(t *testing.T) {
	// A balancer with a huge budget prevents convergence of a two-value
	// split; the run must end at MaxRounds with a near-even split.
	cfg := assign.TwoValue(400, 200, 1, 2)
	adv := adversary.NewBalancer(adversary.Fixed(400), 1, 2)
	res := NewCountEngine(cfg, rules.Median{}, adv, 31, Options{MaxRounds: 200}).Run()
	if res.Reason != model.StopMaxRounds {
		t.Fatalf("balancer failed to stall: %+v", res)
	}
	if res.WinnerCount > 210 {
		t.Fatalf("split %d not balanced under full-power balancer", res.WinnerCount)
	}
}

func TestTwoBinEngineConverges(t *testing.T) {
	e := NewTwoBinEngine(1000, 500, 1, 2, nil, 17, Options{MaxRounds: 5000})
	res := e.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("two-bin did not converge: %+v", res)
	}
	if res.Winner != 1 && res.Winner != 2 {
		t.Fatalf("invalid winner %d", res.Winner)
	}
	if res.WinnerCount != 1000 {
		t.Fatalf("winner count %d", res.WinnerCount)
	}
}

func TestTwoBinEngineMatchesBallEngineStatistically(t *testing.T) {
	const n = 800
	var tb, ball []float64
	for s := uint64(0); s < 30; s++ {
		tb = append(tb, float64(NewTwoBinEngine(n, n/2, 1, 2, nil, s, Options{}).Run().Rounds))
		cfg := assign.TwoValue(n, n/2, 1, 2)
		ball = append(ball, float64(NewBallEngine(cfg, rules.Median{}, nil, s+500, Options{}).Run().Rounds))
	}
	ma, mb := stats.Mean(tb), stats.Mean(ball)
	if math.Abs(ma-mb) > 0.35*(ma+mb)/2+2 {
		t.Fatalf("two-bin %.2f vs ball %.2f mean rounds", ma, mb)
	}
}

func TestTwoBinEngineImbalance(t *testing.T) {
	e := NewTwoBinEngine(100, 20, 1, 2, nil, 1, Options{})
	if got := e.Imbalance(); got != 30 {
		t.Fatalf("imbalance %v, want 30", got)
	}
	l, r := e.Counts()
	if l != 20 || r != 80 {
		t.Fatalf("counts %d,%d", l, r)
	}
}

func TestTwoBinEnginePanics(t *testing.T) {
	cases := []func(){
		func() { NewTwoBinEngine(0, 0, 1, 2, nil, 1, Options{}) },
		func() { NewTwoBinEngine(10, 11, 1, 2, nil, 1, Options{}) },
		func() { NewTwoBinEngine(10, -1, 1, 2, nil, 1, Options{}) },
		func() { NewTwoBinEngine(10, 5, 2, 2, nil, 1, Options{}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTwoBinEngineBalancerKeepsBalance(t *testing.T) {
	// With budget n/2 (absurdly powerful) the balancer holds a perfect
	// 50/50 split indefinitely.
	const n = 10000
	adv := adversary.NewBalancer(adversary.Fixed(n/2), 1, 2)
	e := NewTwoBinEngine(n, n/2, 1, 2, adv, 3, Options{})
	for r := 0; r < 50; r++ {
		e.Step()
	}
	if d := e.Imbalance(); d > float64(n)/4 {
		t.Fatalf("imbalance %v despite full-power balancer", d)
	}
	res := NewTwoBinEngine(n, n/2, 1, 2, adversary.NewBalancer(adversary.Fixed(n/2), 1, 2), 4,
		Options{MaxRounds: 300}).Run()
	if res.Reason != model.StopMaxRounds {
		t.Fatalf("expected stall, got %+v", res)
	}
}

func TestTwoBinEngineRejectsForeignValues(t *testing.T) {
	bad := adversary.NewHider(adversary.Fixed(5), 99) // 99 is outside {1,2}
	e := NewTwoBinEngine(100, 50, 1, 2, bad, 1, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign value")
		}
	}()
	e.Step()
}

// Reviver vs minimum rule: the paper's introduction attack. The minimum
// rule converges to 2 after the adversary deletes value 1, then a single
// revival restarts global convergence toward 1 — no state is stable.
func TestReviverDefeatsMinimumRule(t *testing.T) {
	const n = 300
	cfg := assign.TwoValue(n, 10, 1, 2)
	// First, the adversary kills value 1 at round 0 (budget 10), then
	// waits 20 rounds and revives it.
	kill := adversary.NewFunc("kill-then-revive", adversary.Fixed(10),
		func(round int, state []Value, allowed []Value, r model.Rand) {
			if round == 0 {
				for i := range state {
					if state[i] == 1 {
						state[i] = 2
					}
				}
			}
			if round == 25 {
				state[0] = 1
			}
		})
	e := NewBallEngine(cfg, rules.Minimum{}, kill, 7, Options{MaxRounds: 200})
	// After the kill, all balls hold 2; consensus on 2 would be detected,
	// so step manually and verify the revival drags everyone back to 1.
	sawAllTwo := false
	for r := 0; r < 100; r++ {
		e.Step()
		d := assign.Config(e.State()).Dist()
		if d.Support() == 1 && d.Vals[0] == 2 && e.Round() < 25 {
			sawAllTwo = true
		}
	}
	if !sawAllTwo {
		t.Fatal("adversary failed to push all balls to 2")
	}
	final := assign.Config(e.State()).Dist()
	if final.Support() != 1 || final.Vals[0] != 1 {
		t.Fatalf("revival did not reconverge to 1: %+v", final)
	}
}

// The median rule shrugs off the same reviver: a single re-injected ball is
// absorbed, so the system stays almost-stable on 2.
func TestMedianRuleResistsReviver(t *testing.T) {
	const n = 300
	cfg := assign.TwoValue(n, 10, 1, 2)
	adv := adversary.NewReviver(1, 5)
	e := NewBallEngine(cfg, rules.Median{}, adv, 9, Options{MaxRounds: 400})
	for r := 0; r < 400; r++ {
		e.Step()
	}
	d := assign.Config(e.State()).Dist()
	count2 := int64(0)
	for i, v := range d.Vals {
		if v == 2 {
			count2 = d.Counts[i]
		}
	}
	if count2 < n-5 {
		t.Fatalf("median rule lost stability under reviver: %+v", d)
	}
	if adv.Injections == 0 {
		t.Fatal("reviver never acted; test vacuous")
	}
}

// Property: for any two-value initial split, the ball engine's winner is one
// of the two initial values (validity) and all balls agree at consensus.
func TestQuickTwoValueValidity(t *testing.T) {
	f := func(nRaw uint8, splitRaw uint8, seed uint16) bool {
		n := int(nRaw)%150 + 20
		split := int(splitRaw) % (n + 1)
		cfg := assign.TwoValue(n, split, 10, 20)
		res := NewBallEngine(cfg, rules.Median{}, nil, uint64(seed), Options{MaxRounds: 3000}).Run()
		if res.Reason != model.StopConsensus {
			return false
		}
		return res.Winner == 10 || res.Winner == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TwoBinEngine counts always stay within [0, n].
func TestQuickTwoBinCountsBounded(t *testing.T) {
	f := func(seed uint16, lRaw uint16) bool {
		const n = 1000
		l := int64(lRaw) % (n + 1)
		e := NewTwoBinEngine(n, l, 1, 2, nil, uint64(seed), Options{})
		for r := 0; r < 30; r++ {
			e.Step()
			lo, hi := e.Counts()
			if lo < 0 || hi < 0 || lo+hi != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResultStringRenders(t *testing.T) {
	res := Result{Rounds: 7, Reason: model.StopConsensus, Winner: 3, WinnerCount: 10}
	s := res.String()
	if s == "" || !strings.Contains(s, "consensus") || !strings.Contains(s, "7") {
		t.Fatalf("unhelpful Result.String: %q", s)
	}
}

func TestEngineRoundAccessors(t *testing.T) {
	cfg := assign.Config(assign.EvenBlocks(100, 4))
	ce := NewCountEngine(cfg, rules.Median{}, nil, 1, Options{})
	te := NewTwoBinEngine(100, 40, 1, 2, nil, 1, Options{})
	if ce.Round() != 0 || te.Round() != 0 {
		t.Fatal("fresh engines must report round 0")
	}
	ce.Step()
	te.Step()
	if ce.Round() != 1 || te.Round() != 1 {
		t.Fatal("Round() must count executed steps")
	}
}

func TestCountEngineAfterChoicesTiming(t *testing.T) {
	// The count engine's AfterChoices hook must keep a count-level
	// balancer effective: the two target bins stay within budget of each
	// other after every step.
	cfg := assign.Config(assign.TwoValue(5000, 2500, 1, 2))
	adv := &countBalancerStub{}
	e := NewCountEngine(cfg, rules.Median{}, adv, 7, Options{Timing: AfterChoices})
	for i := 0; i < 30; i++ {
		e.Step()
	}
	if adv.calls != 30 {
		t.Fatalf("adversary called %d times, want 30", adv.calls)
	}
	vals, counts := e.Dist()
	var c1, c2 int64
	for i, v := range vals {
		switch v {
		case 1:
			c1 = counts[i]
		case 2:
			c2 = counts[i]
		}
	}
	diff := c1 - c2
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("post-round balancing left gap %d", diff)
	}
}

// countBalancerStub is an unlimited-budget count balancer used to pin the
// AfterChoices code path.
type countBalancerStub struct{ calls int }

func (s *countBalancerStub) Name() string     { return "stub-balancer" }
func (s *countBalancerStub) Budget(n int) int { return n }
func (s *countBalancerStub) CorruptCounts(round int, vals []Value, counts []int64, allowed []Value, r model.Rand) ([]Value, []int64) {
	s.calls++
	if len(counts) < 2 {
		return vals, counts
	}
	sum := counts[0] + counts[1]
	counts[0] = sum / 2
	counts[1] = sum - sum/2
	return vals, counts
}

func TestTwoBinImbalanceAtConsensus(t *testing.T) {
	e := NewTwoBinEngine(100, 0, 1, 2, nil, 1, Options{})
	if got := e.Imbalance(); got != 50 {
		t.Fatalf("one-sided imbalance Δ = %v, want 50 (= (Y−X)/2)", got)
	}
}

func TestCountEnginePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty config")
		}
	}()
	NewCountEngine(assign.Config(nil), rules.Median{}, nil, 1, Options{})
}

// TestCountEngineRoundAllocs pins the count engine's zero-allocation round
// loop in both update regimes — the transition rows (n ≥ k³) and per-ball
// sampling (small n): once every engine-owned workspace (rows, weights,
// alias table, accumulator map, sample buffer, sorted vectors) has been
// warmed, a steady-state round — including a count-level adversary that
// keeps the chain from absorbing — must not touch the heap.
func TestCountEngineRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		per  int64
	}{
		{"rows", 2000}, // n = 10⁴ ≥ k³ = 125
		{"sampled", 1}, // n = 5 < 2³: never rows
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := assign.Dist{
				Vals:   []Value{1, 2, 3, 4, 5},
				Counts: []int64{tc.per, tc.per, tc.per, tc.per, tc.per},
			}
			eng := NewCountEngineDist(d, rules.Median{}, adversary.NewRandomNoise(adversary.Fixed(4)), 1, Options{})
			for i := 0; i < 8; i++ {
				eng.Step()
			}
			if avg := testing.AllocsPerRun(50, func() { eng.Step() }); avg != 0 {
				t.Fatalf("steady-state count round allocates (%v allocs/round)", avg)
			}
		})
	}
}

// TestTwoBinObservedRoundAllocs pins the observer + adversary round path
// of the two-bin engine: the per-round (vals, counts) views handed to
// both the observer and the count adversary are engine-owned scratch
// (distView), so an observed, adversarial steady-state round must not
// touch the heap.
func TestTwoBinObservedRoundAllocs(t *testing.T) {
	tracker := newStabilityTracker(1<<20, false, Options{})
	var seen int64
	eng := NewTwoBinEngine(1<<20, 1<<19, 1, 2, adversary.NewBalancer(adversary.Fixed(64), 1, 2), 1, Options{
		Observer: func(round int, vals []Value, counts []int64) {
			seen += counts[0]
		},
	})
	for i := 0; i < 8; i++ {
		eng.Step()
		eng.check(tracker, eng.round)
	}
	avg := testing.AllocsPerRun(50, func() {
		eng.Step()
		eng.check(tracker, eng.round)
	})
	if avg != 0 {
		t.Fatalf("steady-state observed two-bin round allocates (%v allocs/round)", avg)
	}
	if seen == 0 {
		t.Fatal("observer never saw a count")
	}
}

// TestBallEngineObservedCheckAllocs pins the per-ball engine's observed
// check path: distInto reuses the engine-owned sorted view, so observing
// every round of a warmed run must not allocate.
func TestBallEngineObservedCheckAllocs(t *testing.T) {
	cfg := make(assign.Config, 512)
	for i := range cfg {
		cfg[i] = Value(i % 7)
	}
	var rounds int
	eng := NewBallEngine(cfg, rules.Median{}, nil, 1, Options{
		Observer: func(round int, vals []Value, counts []int64) {
			rounds++
		},
	})
	tracker := newStabilityTracker(int64(len(cfg)), false, Options{})
	counts := make(map[Value]int64, 16)
	eng.checkState(tracker, counts, 0)
	avg := testing.AllocsPerRun(50, func() {
		eng.checkState(tracker, counts, eng.round)
	})
	if avg != 0 {
		t.Fatalf("observed per-ball check allocates (%v allocs/check)", avg)
	}
	if rounds == 0 {
		t.Fatal("observer never fired")
	}
}
