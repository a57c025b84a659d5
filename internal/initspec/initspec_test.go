package initspec

import (
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestEveryHookSet: every generator in the table sets every hook, so no
// lookup needs a fallback for a missing one.
func TestEveryHookSet(t *testing.T) {
	for kind, g := range generators {
		v := reflect.ValueOf(g)
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Func && f.IsNil() {
				t.Errorf("init kind %q has no %s hook", kind, v.Type().Field(i).Name)
			}
		}
	}
}

// TestKindsAreTheTable: Kinds lists the table's keys, sorted, in a copy
// the caller may change without changing the next call's result.
func TestKindsAreTheTable(t *testing.T) {
	got := Kinds()
	if want := slices.Sorted(maps.Keys(generators)); !slices.Equal(got, want) {
		t.Fatalf("Kinds() = %v, want the table's sorted keys %v", got, want)
	}
	got[0] = "changed"
	if Kinds()[0] == "changed" {
		t.Fatal("Kinds() returned the table's own slice")
	}
}

// TestUnknownKind pins the unknown-kind error, byte for byte, and the
// zero or unchanged answers of the lookups that return no error.
func TestUnknownKind(t *testing.T) {
	const want = `consensus: unknown init kind "nope" (known: [blocks distinct evenblocks twovalue uniform])`
	s := Spec{Kind: "nope", N: 10}
	_, buildErr := Build(s)
	_, distErr := BuildDist(s)
	for _, err := range []error{buildErr, distErr, Check(s)} {
		if err == nil || err.Error() != want {
			t.Fatalf("error %v, want %s", err, want)
		}
	}
	if Size(s) != 0 || Support(s) != 0 || !reflect.DeepEqual(Normalize(s), s) {
		t.Fatalf("unknown kind: size %d, support %d, normalized %+v", Size(s), Support(s), Normalize(s))
	}
}

// TestConcurrentLookups resolves kinds from several goroutines at once,
// so that the race detector sees the table only read.
func TestConcurrentLookups(t *testing.T) {
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, kind := range Kinds() {
				s := Spec{Kind: kind, N: 10, Counts: []int64{4, 6}}
				if err := Check(s); err != nil {
					t.Errorf("Check(%+v): %v", s, err)
				}
				if Support(s) <= 0 {
					t.Errorf("Support(%+v) = %d", s, Support(s))
				}
			}
			if Check(Spec{Kind: "nope"}) == nil {
				t.Error("unknown kind must error")
			}
		}()
	}
	wg.Wait()
}
