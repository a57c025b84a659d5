package gossip

import (
	"math"
	"testing"

	"repro/adversary"
	"repro/engine"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/initspec"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/rules"
)

func TestNetworkConverges(t *testing.T) {
	cfg := assign.AllDistinct(300)
	nw := New(cfg, rules.Median{}, nil, 1, Options{MaxRounds: 2000})
	res := nw.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("no consensus: %+v", res)
	}
	if res.Winner < 1 || res.Winner > 300 {
		t.Fatalf("validity violated: %d", res.Winner)
	}
}

func TestNetworkConsensusIsFixedPoint(t *testing.T) {
	cfg := assign.Config{4, 4, 4}
	nw := New(cfg, rules.Median{}, nil, 2, Options{})
	res := nw.Run()
	if res.Reason != model.StopConsensus || res.Rounds != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestNetworkDeterministic(t *testing.T) {
	cfg := assign.EvenBlocks(150, 3)
	a := New(cfg, rules.Median{}, nil, 7, Options{}).Run()
	b := New(cfg, rules.Median{}, nil, 7, Options{}).Run()
	if a.Rounds != b.Rounds || a.Winner != b.Winner {
		t.Fatalf("not reproducible: %+v vs %+v", a, b)
	}
}

func TestNetworkCapDefault(t *testing.T) {
	cfg := assign.AllDistinct(256)
	nw := New(cfg, rules.Median{}, nil, 1, Options{})
	want := int(math.Ceil(DefaultCapFactor * math.Log2(256)))
	if nw.Cap() != want {
		t.Fatalf("cap %d want %d", nw.Cap(), want)
	}
}

func TestNetworkUnlimitedCap(t *testing.T) {
	cfg := assign.AllDistinct(100)
	nw := New(cfg, rules.Median{}, nil, 1, Options{CapFactor: -1})
	nw.Run()
	if nw.Stats().RequestsDropped != 0 {
		t.Fatalf("dropped %d requests despite unlimited cap", nw.Stats().RequestsDropped)
	}
}

func TestNetworkDropsAreRare(t *testing.T) {
	// With the default capacity 4·log2(n), the max in-degree of 2n uniform
	// requests should essentially never exceed the cap.
	cfg := assign.AllDistinct(500)
	nw := New(cfg, rules.Median{}, nil, 3, Options{MaxRounds: 500})
	nw.Run()
	st := nw.Stats()
	if st.RequestsSent == 0 {
		t.Fatal("no requests recorded")
	}
	dropRate := float64(st.RequestsDropped) / float64(st.RequestsSent)
	if dropRate > 0.001 {
		t.Fatalf("drop rate %v too high (max in-degree %d, cap %d)",
			dropRate, st.MaxInDegree, nw.Cap())
	}
}

func TestNetworkTinyCapStillConverges(t *testing.T) {
	// Even a brutal capacity of 1 only slows the protocol (dropped samples
	// fall back to own values), it cannot wedge it.
	cfg := assign.EvenBlocks(200, 2)
	nw := New(cfg, rules.Median{}, nil, 5, Options{CapFactor: 1e-9, MaxRounds: 20000})
	if nw.Cap() != 1 {
		t.Fatalf("cap %d want 1", nw.Cap())
	}
	res := nw.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("no consensus under cap=1: %+v", res)
	}
	if nw.Stats().RequestsDropped == 0 {
		t.Fatal("expected drops under cap=1; test vacuous")
	}
}

// Conformance (experiment E12): convergence-round distributions of the
// message-level simulator and the balls-and-bins ball engine agree.
func TestNetworkMatchesBallEngine(t *testing.T) {
	cfg := assign.EvenBlocks(300, 3)
	var net, ball []float64
	for s := uint64(0); s < 15; s++ {
		net = append(net, float64(New(cfg, rules.Median{}, nil, s, Options{}).Run().Rounds))
		ball = append(ball, float64(core.NewBallEngine(cfg, rules.Median{}, nil, s+99, core.Options{}).Run().Rounds))
	}
	mn, mb := stats.Mean(net), stats.Mean(ball)
	if math.Abs(mn-mb) > 0.4*(mn+mb)/2+2 {
		t.Fatalf("network %.2f vs ball %.2f mean rounds", mn, mb)
	}
}

func TestNetworkWithAdversaryAlmostStable(t *testing.T) {
	cfg := assign.TwoValue(300, 30, 1, 2)
	adv := adversary.NewHider(adversary.Fixed(5), 1)
	nw := New(cfg, rules.Median{}, adv, 11, Options{AlmostSlack: 10, Window: 5, MaxRounds: 5000})
	res := nw.Run()
	if res.Reason != model.StopAlmostStable {
		t.Fatalf("expected almost-stable: %+v", res)
	}
	if res.Winner != 2 {
		t.Fatalf("winner %d", res.Winner)
	}
}

func TestKeepFirstSelector(t *testing.T) {
	ks := KeepFirst{}
	reqs := []int32{5, 6, 7, 8}
	kept := ks.Select(0, reqs, 2, nil)
	if len(kept) != 2 || kept[0] != 5 || kept[1] != 6 {
		t.Fatalf("kept %v", kept)
	}
	kept = ks.Select(0, reqs, 10, nil)
	if len(kept) != 4 {
		t.Fatalf("under-cap trimmed: %v", kept)
	}
}

func TestDropValueSelectorPrefersDroppingVictims(t *testing.T) {
	d := &DropValue{Victim: 9, state: []Value{9, 1, 9, 1, 1}}
	reqs := []int32{0, 1, 2, 3, 4} // values: 9,1,9,1,1
	kept := d.Select(0, reqs, 3, rng.NewXoshiro256(1))
	if len(kept) != 3 {
		t.Fatalf("kept %d", len(kept))
	}
	for _, q := range kept {
		if d.state[q] == 9 {
			t.Fatalf("victim request kept while non-victims available: %v", kept)
		}
	}
	// When capacity exceeds non-victims, victims fill the remainder.
	kept = d.Select(0, reqs, 4, rng.NewXoshiro256(1))
	victims := 0
	for _, q := range kept {
		if d.state[q] == 9 {
			victims++
		}
	}
	if len(kept) != 4 || victims != 1 {
		t.Fatalf("kept %v victims %d", kept, victims)
	}
}

func TestDropValueAdversarialSelectorDoesNotWedgeMedian(t *testing.T) {
	// Even an adversarial drop selector targeting the minority's requests
	// cannot stop convergence (the paper's cap-with-adversarial-selection
	// model): dropped samples become own values, slowing, not blocking.
	cfg := assign.TwoValue(200, 60, 1, 2)
	nw := New(cfg, rules.Median{}, nil, 13, Options{
		CapFactor: 0.3, // aggressive cap to force drops
		Selector:  &DropValue{Victim: 2},
		MaxRounds: 30000,
	})
	res := nw.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("no consensus: %+v", res)
	}
}

func TestNetworkPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty: expected panic")
			}
		}()
		New(nil, rules.Median{}, nil, 1, Options{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rule: expected panic")
			}
		}()
		New(assign.AllDistinct(5), nil, nil, 1, Options{})
	}()
}

func TestPrivateNumberingsArePermutations(t *testing.T) {
	cfg := assign.AllDistinct(50)
	nw := New(cfg, rules.Median{}, nil, 21, Options{})
	for i, perm := range nw.perms {
		seen := make([]bool, 50)
		for _, v := range perm {
			if v < 0 || int(v) >= 50 || seen[v] {
				t.Fatalf("process %d: invalid numbering %v", i, perm)
			}
			seen[v] = true
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	cfg := assign.AllDistinct(64)
	nw := New(cfg, rules.Median{}, nil, 5, Options{})
	nw.Step()
	nw.Step()
	st := nw.Stats()
	if st.RequestsSent != 2*2*64 {
		t.Fatalf("requests sent %d, want %d", st.RequestsSent, 2*2*64)
	}
	if st.MaxInDegree < 1 {
		t.Fatal("no in-degree recorded")
	}
}

// TestKindRunsTheNetwork: the gossip kind runs the network New builds
// from its init at the run seed, converges as it does, and reports its
// Stats as the result's message telemetry.
func TestKindRunsTheNetwork(t *testing.T) {
	for _, c := range []struct {
		init initspec.Spec
		seed uint64
	}{
		{initspec.Spec{Kind: "distinct", N: 200}, 3},
		{initspec.Spec{Kind: "evenblocks", N: 300, M: 3}, 7},
	} {
		res, err := engine.Execute(engine.Spec{Kind: "gossip", Seed: c.seed, Payload: &Spec{Init: c.init}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		values, err := initspec.Build(c.init)
		if err != nil {
			t.Fatal(err)
		}
		nw := New(assign.Config(values), rules.Median{}, nil, c.seed, Options{})
		out := nw.Run()
		st := nw.Stats()
		want := engine.MessageStats{RequestsSent: st.RequestsSent, RequestsDropped: st.RequestsDropped, MaxInDegree: st.MaxInDegree}
		if res.Reason != model.StopConsensus.String() || res.Rounds != out.Rounds || res.Winner != out.Winner || res.WinnerCount != out.WinnerCount {
			t.Fatalf("%s init: kind gave %+v, network %+v", c.init.Kind, res, out)
		}
		if res.Messages == nil || res.Messages.RequestsSent == 0 || *res.Messages != want {
			t.Fatalf("%s init: telemetry %+v, network stats %+v", c.init.Kind, res.Messages, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	nw := New(assign.EvenBlocks(64, 2), rules.Median{}, nil, 1, Options{})
	if nw.Round() != 0 {
		t.Fatal("fresh network must be at round 0")
	}
	if len(nw.Values()) != 64 {
		t.Fatalf("Values() has %d entries", len(nw.Values()))
	}
	nw.Step()
	if nw.Round() != 1 {
		t.Fatal("Round() must count steps")
	}
}

// TestObserverSeesEveryRound: the observer receives the initial state plus
// one sorted distribution per executed round, and watching a run does not
// change its trajectory — the property the service layer's cancellation
// and streaming hooks rest on.
func TestObserverSeesEveryRound(t *testing.T) {
	cfg := assign.AllDistinct(256)
	var rounds []int
	var lastVals []Value
	var lastCounts []int64
	observed := New(cfg, rules.Median{}, nil, 9, Options{
		Observer: func(round int, vals []Value, counts []int64) {
			rounds = append(rounds, round)
			lastVals = append(lastVals[:0], vals...)
			lastCounts = append(lastCounts[:0], counts...)
			var n int64
			for i := 1; i < len(vals); i++ {
				if vals[i-1] >= vals[i] {
					t.Fatalf("round %d: observed values not sorted: %v", round, vals)
				}
			}
			for _, c := range counts {
				n += c
			}
			if n != 256 {
				t.Fatalf("round %d: observed counts sum to %d", round, n)
			}
		},
	}).Run()
	blind := New(cfg, rules.Median{}, nil, 9, Options{}).Run()
	if observed.Rounds != blind.Rounds || observed.Winner != blind.Winner {
		t.Fatalf("observer changed the trajectory: %+v vs %+v", observed, blind)
	}
	if len(rounds) != observed.Rounds+1 {
		t.Fatalf("observer fired %d times, want rounds+1 = %d", len(rounds), observed.Rounds+1)
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("observation %d reported round %d", i, r)
		}
	}
	if len(lastVals) != 1 || lastVals[0] != observed.Winner || lastCounts[0] != 256 {
		t.Fatalf("final observation %v/%v does not match the consensus", lastVals, lastCounts)
	}
}

// TestObserverPanicUnwindsRun: a panic raised inside the observer escapes
// Run mid-simulation — the mechanism service cancellation uses.
func TestObserverPanicUnwindsRun(t *testing.T) {
	type sentinel struct{}
	nw := New(assign.AllDistinct(128), rules.Median{}, nil, 3, Options{
		Observer: func(round int, _ []Value, _ []int64) {
			if round == 2 {
				panic(sentinel{})
			}
		},
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("observer panic must unwind Run")
		} else if _, ok := r.(sentinel); !ok {
			t.Fatalf("unexpected panic %v", r)
		}
		if nw.Round() != 2 {
			t.Fatalf("run unwound at round %d, want 2", nw.Round())
		}
	}()
	nw.Run()
}

// TestDistIntoAllocs pins the observer aggregation path: distInto reuses
// the network-owned map and sorts in place, so once the map has seen the
// support, observing a round appends into caller scratch and allocates
// nothing else.
func TestDistIntoAllocs(t *testing.T) {
	nw := New(assign.EvenBlocks(400, 4), rules.Median{}, nil, 1, Options{})
	vals := make([]Value, 0, 8)
	counts := make([]int64, 0, 8)
	vals, counts = nw.distInto(vals[:0], counts[:0]) // warm the map
	if len(vals) != 4 || len(counts) != 4 {
		t.Fatalf("distInto: %v %v", vals, counts)
	}
	avg := testing.AllocsPerRun(50, func() {
		vals, counts = nw.distInto(vals[:0], counts[:0])
	})
	if avg != 0 {
		t.Fatalf("steady-state observation allocates (%v allocs/round)", avg)
	}
}
