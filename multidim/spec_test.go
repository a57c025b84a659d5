package multidim

import (
	"reflect"
	"strings"
	"testing"

	"repro/engine"
)

func TestSpecEngineValidation(t *testing.T) {
	good := []Spec{
		{Init: InitSpec{Kind: "random", N: 10}},
		{Init: InitSpec{Kind: "random", N: 10}, Engine: EngineAuto},
		{Init: InitSpec{Kind: "random", N: 10}, Engine: EngineProcess},
		{Init: InitSpec{Kind: "random", N: 10}, Engine: EngineCount},
		{Init: InitSpec{Kind: "random", N: 10}, Engine: EngineAuto,
			Adversary: &AdversaryRef{Name: "noise"}},
		// noise runs at count level (CountAdversary), so count+noise is valid.
		{Init: InitSpec{Kind: "random", N: 10}, Engine: EngineCount,
			Adversary: &AdversaryRef{Name: "noise"}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d must validate, got %v", i, err)
		}
	}
	bad := []Spec{
		{Init: InitSpec{Kind: "random", N: 10}, Engine: "warp"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d must be rejected", i)
		}
	}
}

func TestSpecNormalizeMakesAutoExplicit(t *testing.T) {
	s := &Spec{Init: InitSpec{Kind: "random", N: 10}}
	s.Normalize()
	if s.Engine != EngineAuto {
		t.Fatalf("engine normalized to %q, want %q", s.Engine, EngineAuto)
	}
	// Normalize must not resolve auto to a concrete engine: the canonical
	// form (and hence the cache key) is independent of the selection.
	s.Normalize()
	if s.Engine != EngineAuto {
		t.Fatalf("re-normalize changed engine to %q", s.Engine)
	}
}

// execute runs a multidim spec through the registry dispatcher, capturing
// the round records.
func execute(t *testing.T, payload *Spec, seed uint64, maxRounds int) (engine.Result, []engine.Record) {
	t.Helper()
	var recs []engine.Record
	res, err := engine.Execute(engine.Spec{Kind: "multidim", Seed: seed, MaxRounds: maxRounds, Payload: payload},
		func(r engine.Record) { recs = append(recs, r) }, nil)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res, recs
}

func TestSpecAutoPicksCountTrajectory(t *testing.T) {
	// n=2000 over ≤2 distinct scalar values: auto must resolve to the
	// count engine, so with a shared explicit seed the auto and count runs
	// are the same trajectory, record for record.
	init := InitSpec{Kind: "random", N: 2000, D: 1, M: 2, Seed: 9}
	autoRes, autoRecs := execute(t, &Spec{Init: init, Engine: EngineAuto}, 5, 0)
	countRes, countRecs := execute(t, &Spec{Init: init, Engine: EngineCount}, 5, 0)
	if !reflect.DeepEqual(autoRes, countRes) {
		t.Fatalf("auto and count runs diverged:\n%+v\n%+v", autoRes, countRes)
	}
	if !reflect.DeepEqual(autoRecs, countRecs) {
		t.Fatalf("auto and count record streams diverged (%d vs %d records)", len(autoRecs), len(countRecs))
	}
	if len(autoRecs) != autoRes.Rounds+1 || autoRecs[0].Round != 0 {
		t.Fatalf("count path emitted %d records for %d rounds", len(autoRecs), autoRes.Rounds)
	}
	for _, rec := range autoRecs {
		if rec.N != 2000 || rec.Support < 1 || rec.LeaderPoint == nil || len(*rec.LeaderPoint) != 1 || rec.LeaderCount < 1 {
			t.Fatalf("malformed distribution-level record: %+v", rec)
		}
	}
}

func TestSpecAutoWithCountAdversaryUsesCount(t *testing.T) {
	// noise implements the count-level contract, so auto no longer degrades
	// to the O(n·d) process engine at tiny support; with a shared seed the
	// auto and count trajectories coincide.
	init := InitSpec{Kind: "random", N: 640, D: 1, M: 2, Seed: 3}
	adv := &AdversaryRef{Name: "noise", Params: Params{"t": 2}}
	autoRes, _ := execute(t, &Spec{Init: init, Engine: EngineAuto, Adversary: adv}, 7, 50)
	countRes, _ := execute(t, &Spec{Init: init, Engine: EngineCount, Adversary: adv}, 7, 50)
	if !reflect.DeepEqual(autoRes, countRes) {
		t.Fatalf("auto and count runs diverged:\n%+v\n%+v", autoRes, countRes)
	}
}

func TestSpecCountEngineCancels(t *testing.T) {
	// The count path reports every round through the shared observer hook,
	// so cancellation unwinds it mid-run.
	init := InitSpec{Kind: "random", N: 4000, D: 2, M: 2, Seed: 1}
	calls := 0
	_, err := engine.Execute(engine.Spec{Kind: "multidim", Seed: 2, Payload: &Spec{Init: init, Engine: EngineCount}},
		nil, func() bool { calls++; return calls > 2 })
	if err != engine.ErrCancelled {
		t.Fatalf("cancelled count run returned %v", err)
	}
}

func TestSpecRunRejectsUnknownEngine(t *testing.T) {
	// Run guards the selector itself (Validate normally catches this
	// first, but Run must not silently fall through).
	s := &Spec{Init: InitSpec{Kind: "random", N: 10}, Engine: "warp"}
	_, err := s.Run(engine.RunContext{Seed: 1, Observe: func(engine.Record) {}})
	if err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("unknown engine in Run: %v", err)
	}
}
