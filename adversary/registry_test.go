package adversary

import (
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
)

func TestBudgetSpec(t *testing.T) {
	f, err := BudgetSpec{Kind: "fixed", Factor: 5}.Func()
	if err != nil || f(10000) != 5 {
		t.Fatalf("fixed budget: %v", err)
	}
	f, err = BudgetSpec{Kind: "sqrt", Factor: 1}.Func()
	if err != nil || f(10000) != 100 {
		t.Fatalf("sqrt budget: %v", err)
	}
	f, err = BudgetSpec{Kind: "sqrtlog", Factor: 1}.Func()
	if err != nil || f(10000) <= 100 {
		t.Fatalf("sqrtlog budget must exceed sqrt: %v", err)
	}
	for _, bad := range []BudgetSpec{
		{Kind: "cubic", Factor: 1},
		{Kind: "sqrt", Factor: -1},
		{Kind: "fixed", Factor: 1.5},
	} {
		if _, err := bad.Func(); err == nil {
			t.Fatalf("budget %+v must error", bad)
		}
	}
}

// TestNamesAreTheTable: Names lists the table's keys, sorted, in a copy
// the caller may change without changing the next call's result.
func TestNamesAreTheTable(t *testing.T) {
	got := Names()
	if want := slices.Sorted(maps.Keys(constructors)); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want the table's sorted keys %v", got, want)
	}
	got[0] = "changed"
	if Names()[0] == "changed" {
		t.Fatal("Names() returned the table's own slice")
	}
}

// TestUnknownAdversaryError pins the unknown-name error, byte for byte.
func TestUnknownAdversaryError(t *testing.T) {
	const want = `adversary: unknown adversary "nope" (known: [balancer flipper hider median-splitter random-noise reviver])`
	_, err := New("nope", BudgetSpec{Kind: "sqrt", Factor: 1}, nil)
	_, refErr := Ref{Name: "nope", Budget: BudgetSpec{Kind: "sqrt", Factor: 1}}.New()
	for _, err := range []error{err, refErr} {
		if err == nil || err.Error() != want {
			t.Fatalf("error %v, want %s", err, want)
		}
	}
}

// TestConcurrentLookups resolves names from several goroutines at once,
// so that the race detector sees the table only read.
func TestConcurrentLookups(t *testing.T) {
	budget := BudgetSpec{Kind: "sqrt", Factor: 1}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range Names() {
				if _, err := New(name, budget, nil); err != nil {
					t.Errorf("New(%q): %v", name, err)
				}
			}
			if _, err := New("nope", budget, nil); err == nil {
				t.Error("unknown adversary must error")
			}
		}()
	}
	wg.Wait()
}

func TestRegistryConstructs(t *testing.T) {
	budget := BudgetSpec{Kind: "sqrt", Factor: 1}
	for _, name := range Names() {
		a, err := New(name, budget, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, a.Name())
		}
	}
	a, err := New("balancer", budget, Params{"low": 1, "high": 9})
	if err != nil {
		t.Fatal(err)
	}
	b := a.(*Balancer)
	if b.Low != 1 || b.High != 9 {
		t.Fatalf("balancer targets: %+v", b)
	}
	r, err := New("reviver", budget, Params{"target": 7, "delay": 3})
	if err != nil {
		t.Fatal(err)
	}
	if rv := r.(*Reviver); rv.Target != 7 || rv.Delay != 3 {
		t.Fatalf("reviver params: %+v", rv)
	}
}

// TestRegistryFreshInstances: adversaries carry per-run state, so the
// registry must hand out a new instance every call.
func TestRegistryFreshInstances(t *testing.T) {
	budget := BudgetSpec{Kind: "sqrt", Factor: 1}
	a1, err := New("balancer", budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New("balancer", budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1.(*Balancer) == a2.(*Balancer) {
		t.Fatal("registry returned a shared adversary instance")
	}
}

func TestRegistryErrors(t *testing.T) {
	budget := BudgetSpec{Kind: "sqrt", Factor: 1}
	if _, err := New("nope", budget, nil); err == nil {
		t.Fatal("unknown adversary must error")
	}
	if _, err := New("balancer", BudgetSpec{Kind: "bad"}, nil); err == nil {
		t.Fatal("bad budget must error")
	}
	if _, err := New("balancer", budget, Params{"mid": 1}); err == nil {
		t.Fatal("unknown parameter must error")
	}
	if _, err := New("hider", budget, Params{"held": 1.5}); err == nil {
		t.Fatal("fractional value parameter must error")
	}
	if _, err := New("reviver", budget, Params{"delay": -1}); err == nil {
		t.Fatal("negative delay must error")
	}
}

// TestNonFiniteRejected: a NaN or infinite budget factor or parameter is
// an error, never a budget or a target. JSON cannot carry one, so only
// library callers can pass it.
func TestNonFiniteRejected(t *testing.T) {
	params := map[string]string{"balancer": "low", "reviver": "target", "hider": "held", "flipper": "a"}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, kind := range []string{"fixed", "sqrt", "sqrtlog"} {
			if _, err := (BudgetSpec{Kind: kind, Factor: bad}).Func(); err == nil {
				t.Errorf("%s budget factor %v must error", kind, bad)
			}
		}
		for name, key := range params {
			if _, err := New(name, BudgetSpec{Kind: "sqrt", Factor: 1}, Params{key: bad}); err == nil {
				t.Errorf("%s parameter %s = %v must error", name, key, bad)
			}
		}
	}
}

// TestUnknownParamErrorIsStable: with several unknown parameters the
// error names the smallest, whatever order the map yields them in, and
// comes before the check of a known parameter's bad value.
func TestUnknownParamErrorIsStable(t *testing.T) {
	budget := BudgetSpec{Kind: "sqrt", Factor: 1}
	for _, c := range []struct {
		name string
		p    Params
		want string
	}{
		{"balancer", Params{"target": 1, "delay": 2, "alpha": 3}, `adversary: balancer does not know parameter "alpha"`},
		{"balancer", Params{"target": 1, "delay": 2, "zeta": 3, "low": 1.5}, `adversary: balancer does not know parameter "delay"`},
		{"median-splitter", Params{"c": 1, "b": 2, "d": 3}, `adversary: median-splitter does not know parameter "b"`},
	} {
		for range 100 {
			if _, err := New(c.name, budget, c.p); err == nil || err.Error() != c.want {
				t.Fatalf("%s %v: got %v, want %s", c.name, c.p, err, c.want)
			}
		}
	}
}
