package rules

import (
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"kmedian", "majority", "maximum", "mean", "median", "minimum", "voter"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
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

// TestUnknownRuleError pins the unknown-name error, byte for byte.
func TestUnknownRuleError(t *testing.T) {
	const want = `rules: unknown rule "nope" (known: [kmedian majority maximum mean median minimum voter])`
	_, err := New("nope", nil)
	_, refErr := Ref{Name: "nope"}.New()
	for _, err := range []error{err, refErr} {
		if err == nil || err.Error() != want {
			t.Fatalf("error %v, want %s", err, want)
		}
	}
}

// TestConcurrentLookups resolves names from several goroutines at once,
// so that the race detector sees the table only read.
func TestConcurrentLookups(t *testing.T) {
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range Names() {
				if _, err := New(name, nil); err != nil {
					t.Errorf("New(%q): %v", name, err)
				}
			}
			if _, err := New("nope", nil); err == nil {
				t.Error("unknown rule must error")
			}
		}()
	}
	wg.Wait()
}

func TestRegistryConstructs(t *testing.T) {
	for _, name := range Names() {
		var p Params
		if name == "kmedian" {
			p = Params{"k": 3}
		}
		r, err := New(name, p)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if r.Samples() < 1 {
			t.Fatalf("New(%q): Samples() = %d", name, r.Samples())
		}
	}
	if r, err := New("kmedian", Params{"k": 3}); err != nil || r.(KMedian).K != 3 {
		t.Fatalf("kmedian k=3: %v %v", r, err)
	}
	if r, err := New("kmedian", nil); err != nil || r.(KMedian).K != 1 {
		t.Fatalf("kmedian default k: %v %v", r, err)
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("nope", nil); err == nil {
		t.Fatal("unknown rule must error")
	}
	if _, err := New("median", Params{"k": 1}); err == nil {
		t.Fatal("median with parameters must error")
	}
	if _, err := New("kmedian", Params{"k": 0}); err == nil {
		t.Fatal("kmedian k=0 must error")
	}
	if _, err := New("kmedian", Params{"k": 1.5}); err == nil {
		t.Fatal("kmedian fractional k must error")
	}
	if _, err := New("kmedian", Params{"q": 1}); err == nil {
		t.Fatal("kmedian unknown parameter must error")
	}
}

// TestNonFiniteParamsRejected: a NaN or infinite rule parameter is an
// error, never a rule.
func TestNonFiniteParamsRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New("kmedian", Params{"k": bad}); err == nil {
			t.Errorf("kmedian k = %v must error", bad)
		}
	}
}

// TestUnknownParamErrorIsStable: with several unknown parameters the
// error names the smallest, whatever order the map yields them in, and
// comes before the check of a known parameter's bad value.
func TestUnknownParamErrorIsStable(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Params
		want string
	}{
		{"kmedian", Params{"q": 1, "b": 2, "z": 3}, `rules: kmedian knows only parameter "k", got "b"`},
		{"kmedian", Params{"q": 1, "k": 0.5, "z": 3, "l": 4}, `rules: kmedian knows only parameter "k", got "l"`},
		{"median", Params{"q": 1, "b": 2, "z": 3}, `rules: median takes no parameters, got "b"`},
	} {
		for range 100 {
			if _, err := New(c.name, c.p); err == nil || err.Error() != c.want {
				t.Fatalf("%s %v: got %v, want %s", c.name, c.p, err, c.want)
			}
		}
	}
}
