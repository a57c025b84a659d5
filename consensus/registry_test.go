package consensus

import "testing"

func TestEngineNames(t *testing.T) {
	for _, name := range EngineNames() {
		e, err := EngineByName(name)
		if err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
		if e.String() != name {
			t.Fatalf("Engine %q round-trips to %q", name, e.String())
		}
	}
	if e, err := EngineByName(""); err != nil || e != EngineAuto {
		t.Fatalf("empty engine name must mean auto, got %v %v", e, err)
	}
	if _, err := EngineByName("warp"); err == nil {
		t.Fatal("unknown engine must error")
	}
}

func TestTimingNames(t *testing.T) {
	for _, name := range []string{"", "before-round", "after-choices"} {
		tm, err := TimingByName(name)
		if err != nil {
			t.Fatalf("TimingByName(%q): %v", name, err)
		}
		want := name
		if name == "" {
			want = "before-round"
		}
		if tm.String() != want {
			t.Fatalf("timing %q round-trips to %q", name, tm)
		}
	}
	if _, err := TimingByName("never"); err == nil {
		t.Fatal("unknown timing must error")
	}
}

func TestBuildInit(t *testing.T) {
	cases := []struct {
		spec InitSpec
		n    int
	}{
		{InitSpec{Kind: "distinct", N: 10}, 10},
		{InitSpec{Kind: "uniform", N: 10, M: 3, Seed: 1}, 10},
		{InitSpec{Kind: "twovalue", N: 10}, 10},
		{InitSpec{Kind: "twovalue", N: 10, NLow: 3, Low: 5, High: 9}, 10},
		{InitSpec{Kind: "blocks", Counts: []int64{3, 4, 5}}, 12},
		{InitSpec{Kind: "evenblocks", N: 10, M: 3}, 10},
	}
	for _, c := range cases {
		vals, err := BuildInit(c.spec)
		if err != nil {
			t.Fatalf("BuildInit(%+v): %v", c.spec, err)
		}
		if len(vals) != c.n {
			t.Fatalf("BuildInit(%+v): %d values, want %d", c.spec, len(vals), c.n)
		}
	}
	// Determinism: the uniform generator is pure in its spec.
	a, _ := BuildInit(InitSpec{Kind: "uniform", N: 100, M: 5, Seed: 42})
	b, _ := BuildInit(InitSpec{Kind: "uniform", N: 100, M: 5, Seed: 42})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("uniform init not deterministic in its seed")
		}
	}
}

func TestBuildInitClampsM(t *testing.T) {
	// m > n clamps to n: the blocks still cover all n balls, one per value.
	vals, err := BuildInit(InitSpec{Kind: "evenblocks", N: 5, M: 99})
	if err != nil || len(vals) != 5 {
		t.Fatalf("clamp failed: %v %v", vals, err)
	}
	seen := map[Value]bool{}
	for _, v := range vals {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("m > n must give n distinct blocks, got %d: %v", len(seen), vals)
	}
}

func TestBuildInitErrors(t *testing.T) {
	bad := []InitSpec{
		{Kind: "nope", N: 10},
		{Kind: "distinct", N: 0},
		{Kind: "twovalue", N: 10, Low: 5, High: 5},
		{Kind: "twovalue", N: 10, NLow: 11},
		{Kind: "blocks"},
		{Kind: "blocks", Counts: []int64{0, 0}},
		{Kind: "blocks", Counts: []int64{-1, 5}},
	}
	for _, s := range bad {
		if _, err := BuildInit(s); err == nil {
			t.Fatalf("BuildInit(%+v) must error", s)
		}
	}
}
