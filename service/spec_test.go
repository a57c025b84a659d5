package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/adversary"
	"repro/consensus"
	"repro/engine"
	"repro/multidim"
	"repro/robust"
	"repro/rules"
)

// medianSpec wraps a median payload in its envelope.
func medianSpec(seed uint64, p MedianSpec) Spec {
	return Spec{Kind: KindMedian, Seed: seed, Payload: &p}
}

// ruleParamsFor supplies the parameters a registered rule needs to build.
func ruleParamsFor(name string) rules.Params {
	if name == "kmedian" {
		return rules.Params{"k": 2}
	}
	return nil
}

// advParamsFor supplies the parameters a registered adversary needs.
func advParamsFor(name string) adversary.Params {
	switch name {
	case "balancer":
		return adversary.Params{"low": 1, "high": 2}
	case "reviver":
		return adversary.Params{"target": 1, "delay": 2}
	case "flipper":
		return adversary.Params{"a": 1, "b": 2}
	case "hider":
		return adversary.Params{"held": 1}
	default:
		return nil
	}
}

// TestSpecRoundTripRules JSON round-trips a spec for every registered rule
// and checks the canonical hash survives the trip.
func TestSpecRoundTripRules(t *testing.T) {
	for _, name := range rules.Names() {
		spec := medianSpec(3, MedianSpec{
			Init: InitSpec{Kind: "uniform", N: 100, M: 4, Seed: 7},
			Rule: RuleSpec{Name: name, Params: ruleParamsFor(name)},
		})
		roundTrip(t, "rule "+name, spec)
	}
}

// TestSpecRoundTripAdversaries does the same for every registered adversary.
func TestSpecRoundTripAdversaries(t *testing.T) {
	for _, name := range adversary.Names() {
		spec := medianSpec(3, MedianSpec{
			Init: InitSpec{Kind: "twovalue", N: 100},
			Rule: RuleSpec{Name: "median"},
			Adversary: &AdversarySpec{
				Name:   name,
				Budget: adversary.BudgetSpec{Kind: "sqrt", Factor: 1},
				Params: advParamsFor(name),
			},
		})
		roundTrip(t, "adversary "+name, spec)
	}
}

// TestSpecRoundTripEngines does the same for every engine the median kind
// exposes (gossip is a kind of its own now and is rejected here).
func TestSpecRoundTripEngines(t *testing.T) {
	for _, name := range []string{"auto", "ball", "count", "twobin"} {
		spec := medianSpec(3, MedianSpec{
			Init:   InitSpec{Kind: "twovalue", N: 64},
			Rule:   RuleSpec{Name: "median"},
			Engine: name,
		})
		roundTrip(t, "engine "+name, spec)
	}
}

// TestSpecRoundTripGossip round-trips the gossip kind across every named
// selector form and a non-default rule.
func TestSpecRoundTripGossip(t *testing.T) {
	for _, selector := range []string{"", "fair", "drop-value:1", "drop-value:-7"} {
		spec := Spec{Kind: KindGossip, Seed: 3, Payload: &GossipSpec{
			Init:     InitSpec{Kind: "twovalue", N: 64},
			Selector: selector,
		}}
		roundTrip(t, "gossip selector "+selector, spec)
	}
	spec := Spec{Kind: KindGossip, Seed: 3, Payload: &GossipSpec{
		Init:      InitSpec{Kind: "uniform", N: 64, M: 4, Seed: 5},
		Rule:      RuleSpec{Name: "voter"},
		CapFactor: 2.5,
		Adversary: &AdversarySpec{Name: "balancer",
			Budget: adversary.BudgetSpec{Kind: "sqrt", Factor: 1},
			Params: advParamsFor("balancer")},
		AlmostSlack: 8,
	}}
	roundTrip(t, "gossip full", spec)
}

func roundTrip(t *testing.T, label string, spec Spec) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("%s: validate: %v", label, err)
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	var back Spec
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("%s: unmarshal: %v", label, err)
	}
	if !reflect.DeepEqual(spec.Normalize(), back.Normalize()) {
		t.Fatalf("%s: round trip changed the spec:\n  in:  %+v\n  out: %+v", label, spec, back)
	}
	h1, err := spec.Hash()
	if err != nil {
		t.Fatalf("%s: hash: %v", label, err)
	}
	h2, err := back.Hash()
	if err != nil {
		t.Fatalf("%s: hash after round trip: %v", label, err)
	}
	if h1 != h2 {
		t.Fatalf("%s: hash changed across JSON round trip: %s != %s", label, h1, h2)
	}
}

// TestCanonicalHash pins the normalization rules: defaulted fields do not
// change the hash, while semantically different specs do.
func TestCanonicalHash(t *testing.T) {
	base := medianSpec(5, MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Rule: RuleSpec{Name: "median"},
	})
	explicit := medianSpec(5, MedianSpec{
		Init:    InitSpec{Kind: "twovalue", N: 100},
		Rule:    RuleSpec{Name: "median", Params: rules.Params{}},
		Engine:  "auto",
		Timing:  "before-round",
		Workers: 1, // one worker == sequential == the default
	})
	h1 := mustHash(t, base)
	if h2 := mustHash(t, explicit); h1 != h2 {
		t.Fatalf("defaulted and explicit specs must hash equal: %s != %s", h1, h2)
	}
	// The implied kind canonicalizes to the explicit default kind.
	implied := base
	implied.Kind = ""
	if mustHash(t, implied) != h1 {
		t.Fatal("implied and explicit median kind must hash equal")
	}

	other := base
	other.Seed = 6
	if mustHash(t, other) == h1 {
		t.Fatal("different seeds must hash differently")
	}
	otherRule := medianSpec(5, MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Rule: RuleSpec{Name: "voter"},
	})
	if mustHash(t, otherRule) == h1 {
		t.Fatal("different rules must hash differently")
	}

	// Init defaults canonicalize too: spelling out twovalue's implied
	// n_low/low/high (or uniform's clamped m) must not change the hash.
	explicitInit := medianSpec(5, MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 100, NLow: 50, Low: 1, High: 2},
		Rule: RuleSpec{Name: "median"},
	})
	if mustHash(t, explicitInit) != h1 {
		t.Fatal("implied and explicit twovalue defaults must hash equal")
	}
	u1 := medianSpec(0, MedianSpec{Init: InitSpec{Kind: "uniform", N: 50, Seed: 3}, Rule: RuleSpec{Name: "median"}})
	u2 := medianSpec(0, MedianSpec{Init: InitSpec{Kind: "uniform", N: 50, M: 50, Seed: 3}, Rule: RuleSpec{Name: "median"}})
	if mustHash(t, u1) != mustHash(t, u2) {
		t.Fatal("uniform m=0 and m=n must hash equal")
	}
}

// TestSpecRoundTripMultidim round-trips a multidim spec for every
// registered init kind and adversary strategy.
func TestSpecRoundTripMultidim(t *testing.T) {
	for _, kind := range multidim.InitKinds() {
		spec := Spec{Kind: KindMultidim, Seed: 3, Payload: &MultidimSpec{
			Init: multidim.InitSpec{Kind: kind, N: 64, D: 2, Seed: 7},
		}}
		roundTrip(t, "multidim init "+kind, spec)
	}
	for _, name := range multidim.AdversaryNames() {
		spec := Spec{Kind: KindMultidim, Seed: 3, Payload: &MultidimSpec{
			Init:      multidim.InitSpec{Kind: "distinct", N: 64, D: 3},
			Adversary: &MultidimAdversarySpec{Name: name, Params: multidim.Params{"t": 2}},
		}}
		roundTrip(t, "multidim adversary "+name, spec)
	}
}

// TestSpecRoundTripRobust round-trips a robust spec for every registered
// mode and every scalar init kind.
func TestSpecRoundTripRobust(t *testing.T) {
	for _, mode := range robust.Modes() {
		spec := Spec{Kind: KindRobust, Seed: 3, Payload: &RobustSpec{
			Init:     InitSpec{Kind: "twovalue", N: 100},
			LossProb: 0.25, Crashes: 5, Mode: mode,
		}}
		roundTrip(t, "robust mode "+mode, spec)
	}
	for _, kind := range consensus.InitKinds() {
		init := InitSpec{Kind: kind, N: 100, Seed: 5}
		if kind == "blocks" {
			init = InitSpec{Kind: kind, Counts: []int64{60, 40}}
		}
		spec := Spec{Kind: KindRobust, Seed: 3, Payload: &RobustSpec{Init: init}}
		roundTrip(t, "robust init "+kind, spec)
	}
}

// TestCanonicalHashKinds pins the union's normalization rules: families
// hash apart, and each family's defaulted payload fields hash like their
// explicit forms.
func TestCanonicalHashKinds(t *testing.T) {
	base := medianSpec(5, MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Rule: RuleSpec{Name: "median"},
	})
	robustSpec := Spec{Kind: KindRobust, Seed: 5, Payload: &RobustSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
	}}
	if mustHash(t, robustSpec) == mustHash(t, base) {
		t.Fatal("robust and median specs over the same init must hash differently")
	}
	// A defaulted mode and the explicit responsive mode describe the same
	// run.
	explicitRobust := Spec{Kind: KindRobust, Seed: 5, Payload: &RobustSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Mode: "responsive",
	}}
	if mustHash(t, robustSpec) != mustHash(t, explicitRobust) {
		t.Fatal("implied and explicit default robust payloads must hash equal")
	}

	// Gossip defaults canonicalize: "" selector means fair, "" rule means
	// median.
	g1 := Spec{Kind: KindGossip, Seed: 5, Payload: &GossipSpec{Init: InitSpec{Kind: "twovalue", N: 100}}}
	g2 := Spec{Kind: KindGossip, Seed: 5, Payload: &GossipSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Rule: RuleSpec{Name: "median"}, Selector: "fair",
	}}
	if mustHash(t, g1) != mustHash(t, g2) {
		t.Fatal("implied and explicit gossip defaults must hash equal")
	}
	g3 := Spec{Kind: KindGossip, Seed: 5, Payload: &GossipSpec{
		Init: InitSpec{Kind: "twovalue", N: 100}, Selector: "drop-value:1",
	}}
	if mustHash(t, g3) == mustHash(t, g1) {
		t.Fatal("different selectors must hash differently")
	}

	// Multidim init defaults canonicalize: d=0 means 1, m=0 means n.
	m1 := Spec{Kind: KindMultidim, Seed: 5, Payload: &MultidimSpec{Init: multidim.InitSpec{Kind: "random", N: 50}}}
	m2 := Spec{Kind: KindMultidim, Seed: 5, Payload: &MultidimSpec{Init: multidim.InitSpec{Kind: "random", N: 50, D: 1, M: 50}}}
	if mustHash(t, m1) != mustHash(t, m2) {
		t.Fatal("implied and explicit multidim init defaults must hash equal")
	}
	m3 := Spec{Kind: KindMultidim, Seed: 5, Payload: &MultidimSpec{Init: multidim.InitSpec{Kind: "random", N: 50, D: 2}}}
	if mustHash(t, m1) == mustHash(t, m3) {
		t.Fatal("different dimensions must hash differently")
	}

	// Exact defaults canonicalize: "" init means point, start 0 means n/2.
	e1 := Spec{Kind: KindExact, Seed: 5, Payload: &ExactSpec{N: 50}}
	e2 := Spec{Kind: KindExact, Seed: 5, Payload: &ExactSpec{N: 50, Init: "point", Start: 25}}
	if mustHash(t, e1) != mustHash(t, e2) {
		t.Fatal("implied and explicit exact defaults must hash equal")
	}
	e3 := Spec{Kind: KindExact, Seed: 5, Payload: &ExactSpec{N: 50, Start: 10}}
	if mustHash(t, e1) == mustHash(t, e3) {
		t.Fatal("different exact start states must hash differently")
	}
}

// TestGoldenHashes pins the canonical encoding and hash of one
// representative spec per kind. The registry-dispatched codec defines the
// cache key and the derived seed of every submitted run — an accidental
// codec change would silently invalidate caches and change seedless
// trajectories, so any diff here must be deliberate (and released with
// migration notes). PR 10 bumped these deliberately: the canonical
// encoding now carries the spec-codec version ("v", engine.SpecVersion),
// so every key changed at once and store records persisted under the
// pre-version codec are preserved opaquely instead of orphaned silently
// (see TestSpecVersionMigration in service/store).
func TestGoldenHashes(t *testing.T) {
	cases := []struct {
		kind      string
		spec      Spec
		canonical string
		hash      string
	}{
		{
			kind: KindMedian,
			spec: medianSpec(1, MedianSpec{
				Init: InitSpec{Kind: "twovalue", N: 1000},
				Rule: RuleSpec{Name: "median"},
			}),
			canonical: `{"engine":"auto","init":{"kind":"twovalue","n":1000,"n_low":500,"low":1,"high":2},"kind":"median","rule":{"name":"median"},"seed":1,"timing":"before-round","v":1}`,
			hash:      "e325e5f4b99e541c70d83d865e5c34cbf82079a60275e9bdc99a8ec6bd2ff55d",
		},
		{
			kind: KindGossip,
			spec: Spec{Kind: KindGossip, Seed: 1, Payload: &GossipSpec{
				Init:     InitSpec{Kind: "twovalue", N: 1000},
				Selector: "drop-value:2",
			}},
			canonical: `{"init":{"kind":"twovalue","n":1000,"n_low":500,"low":1,"high":2},"kind":"gossip","rule":{"name":"median"},"seed":1,"selector":"drop-value:2","v":1}`,
			hash:      "7614ea03853c6b7fca21373eb5c830734b7ee9b7da66a441f0e215a3bda46f0b",
		},
		{
			// The engine selector is canonical since PR 4 ("" → "auto",
			// never resolved to a concrete engine), so this encoding —
			// and the hash-derived seed — changed deliberately there.
			kind: KindMultidim,
			spec: Spec{Kind: KindMultidim, Seed: 1, Payload: &MultidimSpec{
				Init: multidim.InitSpec{Kind: "random", N: 1000, D: 2, M: 8, Seed: 1},
			}},
			canonical: `{"engine":"auto","init":{"kind":"random","n":1000,"d":2,"m":8,"seed":1},"kind":"multidim","seed":1,"v":1}`,
			hash:      "797893f2676833426266a1ddb6f522aa88cef559fe822f937e6a25456fbfbd00",
		},
		{
			// An explicit count-level engine is part of the cache key: a
			// count-engine run and a process-engine run of the same init
			// are different runs.
			kind: KindMultidim + "/count",
			spec: Spec{Kind: KindMultidim, Seed: 1, Payload: &MultidimSpec{
				Init:   multidim.InitSpec{Kind: "random", N: 100000, D: 2, M: 4, Seed: 1},
				Engine: multidim.EngineCount,
			}},
			canonical: `{"engine":"count","init":{"kind":"random","n":100000,"d":2,"m":4,"seed":1},"kind":"multidim","seed":1,"v":1}`,
			hash:      "4ecd26d739254389ba175ed0a7845cec92b76cdb5a96de92e151821a527400b0",
		},
		{
			// A billion-process count-path spec: the hash (and the seed
			// derived from it) must stay byte-stable however the huge-n
			// hot path evolves, and "auto" must stay symbolic even though
			// the run resolves to the count engine. This is the spec the
			// acceptance e2e (TestBillionCountEndToEndHTTP) runs.
			kind: KindMultidim + "/billion",
			spec: Spec{Kind: KindMultidim, Seed: 1, Payload: &MultidimSpec{
				Init:      multidim.InitSpec{Kind: "random", N: 1_000_000_000, D: 2, M: 2, Seed: 3},
				Adversary: &MultidimAdversarySpec{Name: "noise"},
			}},
			canonical: `{"adversary":{"name":"noise"},"engine":"auto","init":{"kind":"random","n":1000000000,"d":2,"m":2,"seed":3},"kind":"multidim","seed":1,"v":1}`,
			hash:      "305d2bfd1a080c5b3e53350a4691b8dbe9ddb32a36967d4523aefd672ede75b9",
		},
		{
			kind: KindRobust,
			spec: Spec{Kind: KindRobust, Seed: 1, Payload: &RobustSpec{
				Init:     InitSpec{Kind: "twovalue", N: 1000},
				LossProb: 0.1, Crashes: 10,
			}},
			canonical: `{"crashes":10,"init":{"kind":"twovalue","n":1000,"n_low":500,"low":1,"high":2},"kind":"robust","loss_prob":0.1,"mode":"responsive","seed":1,"v":1}`,
			hash:      "9db86eacc226f41e76a2c96dcb00497ad720faae4186a06296ba0702fd667fc5",
		},
		{
			// The analytic kind: its result never depends on the seed, but
			// the seed still participates in the cache key like every other
			// envelope field — two exact specs differing only in seed are
			// two store entries with byte-identical results.
			kind:      KindExact,
			spec:      Spec{Kind: KindExact, Seed: 1, Payload: &ExactSpec{N: 64, Start: 16}},
			canonical: `{"init":"point","kind":"exact","n":64,"seed":1,"start":16,"v":1}`,
			hash:      "85315fbb4fc54b589411bc116dc107e2dfbda019b85ffcaeda7918d2cc6a72bf",
		},
	}
	for _, c := range cases {
		canonical, err := c.spec.Canonical()
		if err != nil {
			t.Fatalf("%s: canonical: %v", c.kind, err)
		}
		if string(canonical) != c.canonical {
			t.Errorf("%s canonical encoding changed:\n got  %s\n want %s", c.kind, canonical, c.canonical)
		}
		h, err := c.spec.Hash()
		if err != nil {
			t.Fatalf("%s: hash: %v", c.kind, err)
		}
		if h != c.hash {
			t.Errorf("%s golden hash changed: got %s, want %s", c.kind, h, c.hash)
		}
	}
}

// TestMultidimEngineAutoCanonical: "engine": "auto" is itself the
// canonical form — Normalize makes it explicit but never resolves it to
// the concrete engine auto will pick, so the cache key of an auto spec is
// independent of the selection rule (tightening PickEngine later must not
// invalidate cached results), while an explicit engine choice is a
// different run with a different key.
func TestMultidimEngineAutoCanonical(t *testing.T) {
	implied := Spec{Kind: KindMultidim, Seed: 5, Payload: &MultidimSpec{
		Init: multidim.InitSpec{Kind: "random", N: 50}}}
	explicit := Spec{Kind: KindMultidim, Seed: 5, Payload: &MultidimSpec{
		Init: multidim.InitSpec{Kind: "random", N: 50}, Engine: multidim.EngineAuto}}
	if mustHash(t, implied) != mustHash(t, explicit) {
		t.Fatal("implied and explicit auto engines must hash equal")
	}
	c, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(c), `"engine":"auto"`) {
		t.Fatalf("canonical form must keep engine auto symbolic, got %s", c)
	}
	for _, resolved := range []string{multidim.EngineCount, multidim.EngineProcess} {
		s := Spec{Kind: KindMultidim, Seed: 5, Payload: &MultidimSpec{
			Init: multidim.InitSpec{Kind: "random", N: 50}, Engine: resolved}}
		if mustHash(t, s) == mustHash(t, explicit) {
			t.Fatalf("engine %q must hash differently from auto", resolved)
		}
	}
}

// TestValidateKindMixing rejects specs whose payload belongs to another
// family — the strict registry-dispatched decode surfaces them as
// unknown-field errors — plus unknown kinds and the retired engine name.
func TestValidateKindMixing(t *testing.T) {
	bad := []Spec{
		// median spec with a foreign payload
		{Kind: KindMedian, Payload: &RobustSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Crashes: 1}},
		// multidim with a scalar payload, without its payload entirely, or
		// with a bad adversary
		{Kind: KindMultidim, Payload: &MedianSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Rule: RuleSpec{Name: "median"}}},
		{Kind: KindMultidim},
		{Kind: KindMultidim, Payload: &MultidimSpec{
			Init:      multidim.InitSpec{Kind: "distinct", N: 10},
			Adversary: &MultidimAdversarySpec{Name: "nope"}}},
		// robust with median knobs or bad payloads
		{Kind: KindRobust, Payload: &MedianSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Rule: RuleSpec{Name: "median"}}},
		{Kind: KindRobust, Payload: &RobustSpec{Init: InitSpec{Kind: "twovalue", N: 10}, LossProb: 1.5}},
		{Kind: KindRobust, Payload: &RobustSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Crashes: 10}},
		{Kind: KindRobust, Payload: &RobustSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Mode: "quantum"}},
		// gossip with a bad selector or foreign payload
		{Kind: KindGossip, Payload: &GossipSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Selector: "warp"}},
		{Kind: KindGossip, Payload: &GossipSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Selector: "drop-value:x"}},
		{Kind: KindGossip, Payload: &MedianSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Rule: RuleSpec{Name: "median"}, Engine: "ball"}},
		// the retired median engine name points at the gossip kind
		{Kind: KindMedian, Payload: &MedianSpec{Init: InitSpec{Kind: "twovalue", N: 10}, Rule: RuleSpec{Name: "median"}, Engine: "gossip"}},
		// unknown kind
		{Kind: "tetrahedral"},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad kind-mix spec %d validated: %+v", i, spec)
		}
	}
}

// TestSpecDecodeStrict: the codec rejects fields the spec's kind does not
// define — cross-family payload fields included — instead of dropping them.
func TestSpecDecodeStrict(t *testing.T) {
	bad := []string{
		`{"init":{"kind":"twovalue","n":10},"rule":{"name":"median"},"loss_prob":0.5}`,
		`{"kind":"robust","init":{"kind":"twovalue","n":10},"rule":{"name":"median"}}`,
		`{"kind":"multidim","init":{"kind":"distinct","n":10},"selector":"fair"}`,
		`{"kind":"gossip","init":{"kind":"twovalue","n":10},"engine":"ball"}`,
		`{"kind":"warp"}`,
		`{"init":{"kind":"twovalue","n":10},"rule":{"name":"median"},"maxrounds":5}`,
	}
	for _, raw := range bad {
		var spec Spec
		if err := json.Unmarshal([]byte(raw), &spec); err == nil {
			t.Errorf("foreign/unknown field decoded silently: %s", raw)
		}
	}
	// The error names the kind whose schema rejected the field.
	var spec Spec
	err := json.Unmarshal([]byte(`{"kind":"gossip","engine":"ball"}`), &spec)
	if err == nil || !strings.Contains(err.Error(), "gossip") {
		t.Fatalf("decode error must name the kind: %v", err)
	}
}

// TestExecuteMultidimDeterminism: same multidim spec, same result and
// record stream — the cache-determinism contract for the kind.
func TestExecuteMultidimDeterminism(t *testing.T) {
	spec := Spec{Kind: KindMultidim, Seed: 11, Payload: &MultidimSpec{
		Init: multidim.InitSpec{Kind: "random", N: 400, D: 2, M: 8, Seed: 11},
	}}
	var recs1, recs2 []RoundRecord
	res1, err := Execute(spec, func(r RoundRecord) { recs1 = append(recs1, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Execute(spec, func(r RoundRecord) { recs2 = append(recs2, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("multidim runs diverged: %+v vs %+v", res1, res2)
	}
	if !reflect.DeepEqual(recs1, recs2) {
		t.Fatal("multidim record streams diverged")
	}
	if res1.Reason != "consensus" || len(res1.WinnerPoint) != 2 || res1.WinnerCount != 400 {
		t.Fatalf("unexpected multidim result: %+v", res1)
	}
	if len(recs1) != res1.Rounds+1 {
		t.Fatalf("got %d records, want %d", len(recs1), res1.Rounds+1)
	}
	if recs1[0].Round != 0 || recs1[0].N != 400 || recs1[0].LeaderPoint == nil || len(*recs1[0].LeaderPoint) != 2 {
		t.Fatalf("bad initial record: %+v", recs1[0])
	}
}

// TestExecuteRobustDeterminism: the robust kind is deterministic too, and
// reports parallel-time rounds with one record per round.
func TestExecuteRobustDeterminism(t *testing.T) {
	spec := Spec{Kind: KindRobust, Seed: 13, Payload: &RobustSpec{
		Init:     InitSpec{Kind: "twovalue", N: 600},
		LossProb: 0.1, Crashes: 6, Mode: "silent",
	}}
	var recs []RoundRecord
	res1, err := Execute(spec, func(r RoundRecord) { recs = append(recs, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Execute(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("robust runs diverged: %+v vs %+v", res1, res2)
	}
	if res1.Reason != "consensus" || res1.Steps == 0 || res1.Steps != res1.Rounds*600 {
		t.Fatalf("unexpected robust result: %+v", res1)
	}
	if len(recs) != res1.Rounds+1 {
		t.Fatalf("got %d records, want %d", len(recs), res1.Rounds+1)
	}
	if recs[0].Round != 0 || recs[0].Support != 2 {
		t.Fatalf("bad initial record: %+v", recs[0])
	}
}

// TestExecuteGossipDeterminism: the first-class gossip kind runs
// deterministically, reports message telemetry, and an adversarial
// drop-value selector changes the trajectory while staying deterministic.
func TestExecuteGossipDeterminism(t *testing.T) {
	fair := Spec{Kind: KindGossip, Seed: 7, Payload: &GossipSpec{
		Init:      InitSpec{Kind: "twovalue", N: 400},
		CapFactor: 0.3, // tight capacity so drops actually happen
	}}
	var recs1, recs2 []RoundRecord
	res1, err := Execute(fair, func(r RoundRecord) { recs1 = append(recs1, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Execute(fair, func(r RoundRecord) { recs2 = append(recs2, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(recs1, recs2) {
		t.Fatalf("gossip runs diverged: %+v vs %+v", res1, res2)
	}
	if res1.Reason != "consensus" || res1.WinnerCount != 400 {
		t.Fatalf("unexpected gossip result: %+v", res1)
	}
	if res1.Messages == nil || res1.Messages.RequestsSent == 0 {
		t.Fatalf("gossip result must carry message telemetry: %+v", res1)
	}
	if len(recs1) != res1.Rounds+1 {
		t.Fatalf("got %d records, want %d", len(recs1), res1.Rounds+1)
	}

	adversarial := Spec{Kind: KindGossip, Seed: 7, Payload: &GossipSpec{
		Init:      InitSpec{Kind: "twovalue", N: 400},
		CapFactor: 0.3,
		Selector:  "drop-value:1",
	}}
	advRes, err := Execute(adversarial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if advRes.Messages == nil || advRes.Messages.RequestsDropped == 0 {
		t.Fatalf("tight capacity must drop requests: %+v", advRes.Messages)
	}
	again, err := Execute(adversarial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(advRes, again) {
		t.Fatal("adversarial gossip run is not deterministic")
	}
}

func mustHash(t *testing.T, s Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSeedDerivation: seedless specs still run deterministically, with a
// seed derived from the canonical hash.
func TestSeedDerivation(t *testing.T) {
	spec := Spec{Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 100},
		Rule: RuleSpec{Name: "median"},
	}}
	s1, err := spec.EffectiveSeed()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := spec.EffectiveSeed()
	if err != nil {
		t.Fatal(err)
	}
	if s1 == 0 || s1 != s2 {
		t.Fatalf("derived seed must be stable and non-zero, got %d and %d", s1, s2)
	}
	seeded := spec
	seeded.Seed = 42
	s3, err := seeded.EffectiveSeed()
	if err != nil {
		t.Fatal(err)
	}
	if s3 != 42 {
		t.Fatalf("explicit seed must win, got %d", s3)
	}
}

// TestSpecValidateErrors rejects unknown registry references and bad
// parameters.
func TestSpecValidateErrors(t *testing.T) {
	median := func(p MedianSpec) Spec { return Spec{Payload: &p} }
	bad := []Spec{
		median(MedianSpec{Init: InitSpec{Kind: "twovalue", N: 100}, Rule: RuleSpec{Name: "nope"}}),
		median(MedianSpec{Init: InitSpec{Kind: "nope", N: 100}, Rule: RuleSpec{Name: "median"}}),
		median(MedianSpec{Init: InitSpec{Kind: "twovalue", N: 0}, Rule: RuleSpec{Name: "median"}}),
		median(MedianSpec{Init: InitSpec{Kind: "twovalue", N: 100}, Rule: RuleSpec{Name: "median", Params: rules.Params{"z": 1}}}),
		median(MedianSpec{Init: InitSpec{Kind: "twovalue", N: 100}, Rule: RuleSpec{Name: "median"}, Engine: "warp"}),
		median(MedianSpec{Init: InitSpec{Kind: "twovalue", N: 100}, Rule: RuleSpec{Name: "median"}, Timing: "never"}),
		median(MedianSpec{Init: InitSpec{Kind: "twovalue", N: 100}, Rule: RuleSpec{Name: "median"},
			Adversary: &AdversarySpec{Name: "balancer", Budget: adversary.BudgetSpec{Kind: "cubic", Factor: 1}}}),
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	negative := median(MedianSpec{Init: InitSpec{Kind: "twovalue", N: 100}, Rule: RuleSpec{Name: "median"}})
	negative.MaxRounds = -1
	if err := negative.Validate(); err == nil {
		t.Error("negative max_rounds validated")
	}
}

// TestExecuteConverges runs a small median-rule spec end to end.
func TestExecuteConverges(t *testing.T) {
	spec := medianSpec(1, MedianSpec{
		Init: InitSpec{Kind: "twovalue", N: 1000},
		Rule: RuleSpec{Name: "median"},
	})
	var rounds []RoundRecord
	res, err := Execute(spec, func(r RoundRecord) { rounds = append(rounds, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != "consensus" {
		t.Fatalf("expected consensus, got %+v", res)
	}
	if res.Winner != 1 && res.Winner != 2 {
		t.Fatalf("winner %d not an initial value", res.Winner)
	}
	if res.WinnerCount != 1000 {
		t.Fatalf("winner count %d != n", res.WinnerCount)
	}
	// R rounds yield R+1 records: the initial state plus one per round.
	if len(rounds) != res.Rounds+1 {
		t.Fatalf("got %d round records, want %d", len(rounds), res.Rounds+1)
	}
	for i, r := range rounds {
		if r.Round != i || r.N != 1000 || r.Support < 1 || r.Support > 2 || r.LeaderCount < 500 {
			t.Fatalf("bad round record %d: %+v", i, r)
		}
	}
	// Determinism: same spec, same trajectory.
	res2, err := Execute(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("identical specs diverged: %+v vs %+v", res, res2)
	}
}

// TestExecuteBadEngineCombination: an invalid engine/state pairing must
// surface as an error, not a panic.
func TestExecuteBadEngineCombination(t *testing.T) {
	spec := medianSpec(1, MedianSpec{
		Init:   InitSpec{Kind: "distinct", N: 100}, // 100 distinct values
		Rule:   RuleSpec{Name: "median"},
		Engine: "twobin", // needs <= 2 values
	})
	if _, err := Execute(spec, nil, nil); err == nil {
		t.Fatal("expected an error for twobin on 100 distinct values")
	}
}

// TestEngineDescriptors: the registry serves one self-describing
// descriptor per kind, sorted by kind and stable across calls (the
// enum lists come from the live registries, not registration order).
func TestEngineDescriptors(t *testing.T) {
	ds := engine.Descriptors()
	if len(ds) < 4 {
		t.Fatalf("expected at least 4 registered kinds, got %d", len(ds))
	}
	kinds := make([]string, len(ds))
	for i, d := range ds {
		kinds[i] = d.Kind
	}
	want := []string{KindExact, KindGossip, KindMedian, KindMultidim, KindRobust}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("descriptor kinds %v, want sorted %v", kinds, want)
	}
	if !reflect.DeepEqual(ds, engine.Descriptors()) {
		t.Fatal("descriptors must be stable across calls")
	}
	for _, d := range ds {
		if d.Summary == "" || len(d.Params) == 0 {
			t.Fatalf("kind %s descriptor is not self-describing: %+v", d.Kind, d)
		}
		if (d.Kind == KindMedian) != d.Default {
			t.Fatalf("exactly the median kind must be the default, got %+v", d)
		}
	}
}
