package multidim

import (
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestEveryHookSet: every generator in the init table sets every hook, so
// no lookup needs a fallback for a missing one.
func TestEveryHookSet(t *testing.T) {
	for kind, g := range initGenerators {
		v := reflect.ValueOf(g)
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Func && f.IsNil() {
				t.Errorf("init kind %q has no %s hook", kind, v.Type().Field(i).Name)
			}
		}
	}
}

// TestNamesAreTheTables: InitKinds and AdversaryNames list their tables'
// keys, sorted, in copies the caller may change without changing the next
// call's result.
func TestNamesAreTheTables(t *testing.T) {
	for _, c := range []struct {
		what  string
		names func() []string
		keys  []string
	}{
		{"InitKinds", InitKinds, slices.Sorted(maps.Keys(initGenerators))},
		{"AdversaryNames", AdversaryNames, slices.Sorted(maps.Keys(adversaries))},
	} {
		got := c.names()
		if !slices.Equal(got, c.keys) {
			t.Fatalf("%s() = %v, want the table's sorted keys %v", c.what, got, c.keys)
		}
		got[0] = "changed"
		if c.names()[0] == "changed" {
			t.Fatalf("%s() returned the table's own slice", c.what)
		}
	}
}

// TestUnknownNames pins the unknown-name errors, byte for byte, and the
// zero or unchanged answers of the lookups that return no error.
func TestUnknownNames(t *testing.T) {
	const wantInit = `multidim: unknown init kind "nope" (known: [distinct random])`
	s := InitSpec{Kind: "nope", N: 10}
	_, buildErr := BuildInit(s)
	_, _, countsErr := BuildInitCounts(s)
	for _, err := range []error{buildErr, countsErr, CheckInit(s)} {
		if err == nil || err.Error() != wantInit {
			t.Fatalf("error %v, want %s", err, wantInit)
		}
	}
	if InitSize(s) != 0 || InitSupport(s) != 0 || NormalizeInit(s) != s {
		t.Fatalf("unknown kind: size %d, support %d, normalized %+v", InitSize(s), InitSupport(s), NormalizeInit(s))
	}
	const wantAdv = `multidim: unknown adversary "nope" (known: [noise])`
	if _, err := NewAdversary("nope", nil); err == nil || err.Error() != wantAdv {
		t.Fatalf("error %v, want %s", err, wantAdv)
	}
}

// TestConcurrentLookups resolves names from several goroutines at once,
// so that the race detector sees the tables only read.
func TestConcurrentLookups(t *testing.T) {
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range AdversaryNames() {
				if _, err := NewAdversary(name, nil); err != nil {
					t.Errorf("NewAdversary(%q): %v", name, err)
				}
			}
			for _, kind := range InitKinds() {
				if err := CheckInit(InitSpec{Kind: kind, N: 10}); err != nil {
					t.Errorf("CheckInit(%q): %v", kind, err)
				}
			}
			if _, err := NewAdversary("nope", nil); err == nil {
				t.Error("unknown adversary must error")
			}
		}()
	}
	wg.Wait()
}

// TestInitRegistryCoverage builds and normalizes every registered kind.
func TestInitRegistryCoverage(t *testing.T) {
	for _, kind := range InitKinds() {
		spec := InitSpec{Kind: kind, N: 20, D: 3, M: 5, Seed: 7}
		if err := CheckInit(spec); err != nil {
			t.Fatalf("%s: check: %v", kind, err)
		}
		pts, err := BuildInit(spec)
		if err != nil {
			t.Fatalf("%s: build: %v", kind, err)
		}
		if len(pts) != 20 || len(pts[0]) != 3 {
			t.Fatalf("%s: built %dx%d, want 20x3", kind, len(pts), len(pts[0]))
		}
		if InitSize(spec) != 20 {
			t.Fatalf("%s: size %d, want 20", kind, InitSize(spec))
		}
		norm := NormalizeInit(spec)
		if norm.Kind != kind || norm.N != 20 || norm.D != 3 {
			t.Fatalf("%s: normalize mangled the spec: %+v", kind, norm)
		}
		// Normalization is idempotent.
		if NormalizeInit(norm) != norm {
			t.Fatalf("%s: normalize not idempotent", kind)
		}
	}
}

// TestInitDefaults: d defaults to 1, random's m defaults to n, and the
// defaulted and explicit forms normalize identically.
func TestInitDefaults(t *testing.T) {
	implied := NormalizeInit(InitSpec{Kind: "random", N: 10, Seed: 3})
	explicit := NormalizeInit(InitSpec{Kind: "random", N: 10, D: 1, M: 10, Seed: 3})
	if implied != explicit {
		t.Fatalf("defaults must normalize explicit: %+v vs %+v", implied, explicit)
	}
	// distinct ignores m and seed.
	d := NormalizeInit(InitSpec{Kind: "distinct", N: 10, M: 99, Seed: 3})
	if d != (InitSpec{Kind: "distinct", N: 10, D: 1}) {
		t.Fatalf("distinct normalization kept irrelevant fields: %+v", d)
	}
}

// TestInitErrors rejects malformed and unknown specs.
func TestInitErrors(t *testing.T) {
	bad := []InitSpec{
		{Kind: "random"},
		{Kind: "random", N: -1},
		{Kind: "distinct", N: 0},
		{Kind: "warp", N: 10},
	}
	for i, spec := range bad {
		if err := CheckInit(spec); err == nil {
			t.Errorf("bad init %d validated: %+v", i, spec)
		}
		if _, err := BuildInit(spec); err == nil {
			t.Errorf("bad init %d built: %+v", i, spec)
		}
	}
}

// TestAdversaryRegistry constructs every registered strategy and rejects
// unknown names and parameters.
func TestAdversaryRegistry(t *testing.T) {
	for _, name := range AdversaryNames() {
		adv, err := NewAdversary(name, Params{"t": 3})
		if err != nil || adv == nil {
			t.Fatalf("%s: %v", name, err)
		}
		if adv.Budget(100) != 3 {
			t.Fatalf("%s: budget %d, want 3", name, adv.Budget(100))
		}
	}
	if _, err := NewAdversary("nope", nil); err == nil {
		t.Fatal("unknown adversary must error")
	}
	if _, err := NewAdversary("noise", Params{"z": 1}); err == nil {
		t.Fatal("unknown parameter must error")
	}
	if _, err := NewAdversary("noise", Params{"t": 1.5}); err == nil {
		t.Fatal("fractional budget must error")
	}
}

// TestPlurality pins the deterministic support/winner accounting.
func TestPlurality(t *testing.T) {
	state := []Point{{1, 1}, {2, 2}, {1, 1}, {3, 3}}
	w, c, support := Plurality(state)
	if !w.Equal(Point{1, 1}) || c != 2 || support != 3 {
		t.Fatalf("Plurality = %v/%d/%d, want [1 1]/2/3", w, c, support)
	}
	// Ties resolve to the first holder, deterministically.
	tied := []Point{{5}, {4}, {5}, {4}}
	w, c, support = Plurality(tied)
	if !w.Equal(Point{5}) || c != 2 || support != 2 {
		t.Fatalf("tie broke to %v/%d/%d, want first holder [5]/2/2", w, c, support)
	}
}

// TestPluralityEmptyState: the exported API tolerates empty input.
func TestPluralityEmptyState(t *testing.T) {
	w, c, support := Plurality(nil)
	if w != nil || c != 0 || support != 0 {
		t.Fatalf("Plurality(nil) = %v/%d/%d, want nil/0/0", w, c, support)
	}
}

// TestUnknownParamErrorIsStable: with several unknown parameters the
// error names the smallest, whatever order the map yields them in, and
// comes before the check of a known parameter's bad value.
func TestUnknownParamErrorIsStable(t *testing.T) {
	const want = `multidim: noise knows only parameter "t", got "b"`
	for range 100 {
		if _, err := NewAdversary("noise", Params{"z": 1, "b": 2, "y": 3, "t": 1.5}); err == nil || err.Error() != want {
			t.Fatalf("got %v, want %s", err, want)
		}
	}
}
