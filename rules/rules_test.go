package rules

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/rng"
)

func TestMedianBasic(t *testing.T) {
	cases := []struct {
		own  Value
		s    []Value
		want Value
	}{
		{10, []Value{12, 100}, 12}, // the paper's worked example
		{1, []Value{2, 3}, 2},
		{3, []Value{1, 2}, 2},
		{2, []Value{1, 3}, 2},
		{5, []Value{5, 5}, 5},
		{5, []Value{5, 9}, 5},
		{-7, []Value{0, -3}, -3},
	}
	for _, c := range cases {
		if got := (Median{}).Update(c.own, c.s); got != c.want {
			t.Errorf("Median(%d, %v) = %d want %d", c.own, c.s, got, c.want)
		}
	}
}

func TestMedianMeta(t *testing.T) {
	if (Median{}).Name() != "median" || (Median{}).Samples() != 2 {
		t.Fatal("bad metadata")
	}
}

// On two-value states, Median and Majority coincide (Section 3: "for the two
// bin-case, the median rule coincides with the majority rule").
func TestMedianEqualsMajorityOnTwoValues(t *testing.T) {
	vals := []Value{1, 2}
	for _, own := range vals {
		for _, s0 := range vals {
			for _, s1 := range vals {
				m := (Median{}).Update(own, []Value{s0, s1})
				j := (Majority{}).Update(own, []Value{s0, s1})
				if m != j {
					t.Errorf("median %d != majority %d on (%d; %d,%d)", m, j, own, s0, s1)
				}
			}
		}
	}
}

func TestMajorityTieKeepsOwn(t *testing.T) {
	if got := (Majority{}).Update(5, []Value{1, 9}); got != 5 {
		t.Fatalf("three-way tie: got %d want 5", got)
	}
	if got := (Majority{}).Update(5, []Value{9, 9}); got != 9 {
		t.Fatalf("pair: got %d want 9", got)
	}
	if got := (Majority{}).Update(5, []Value{5, 9}); got != 5 {
		t.Fatalf("own+one: got %d want 5", got)
	}
}

func TestMinimumMaximum(t *testing.T) {
	if got := (Minimum{}).Update(5, []Value{3}); got != 3 {
		t.Fatalf("min: %d", got)
	}
	if got := (Minimum{}).Update(3, []Value{5}); got != 3 {
		t.Fatalf("min keep: %d", got)
	}
	if got := (Maximum{}).Update(5, []Value{3}); got != 5 {
		t.Fatalf("max keep: %d", got)
	}
	if got := (Maximum{}).Update(3, []Value{5}); got != 5 {
		t.Fatalf("max: %d", got)
	}
	if (Minimum{}).Samples() != 1 || (Maximum{}).Samples() != 1 {
		t.Fatal("samples")
	}
}

func TestMeanRounding(t *testing.T) {
	cases := []struct {
		own  Value
		s    []Value
		want Value
	}{
		{0, []Value{0, 0}, 0},
		{1, []Value{1, 1}, 1},
		{0, []Value{0, 3}, 1},
		{0, []Value{1, 1}, 1},  // 2/3 rounds to 1
		{0, []Value{0, 1}, 0},  // 1/3 rounds to 0
		{0, []Value{0, -1}, 0}, // -1/3 rounds to 0
		{0, []Value{-1, -1}, -1},
		{10, []Value{20, 30}, 20},
	}
	for _, c := range cases {
		if got := (Mean{}).Update(c.own, c.s); got != c.want {
			t.Errorf("Mean(%d, %v) = %d want %d", c.own, c.s, got, c.want)
		}
	}
}

func TestKMedianOneIsMedian(t *testing.T) {
	k := NewKMedian(1)
	if k.Samples() != 2 {
		t.Fatalf("samples %d", k.Samples())
	}
	for own := Value(0); own < 4; own++ {
		for a := Value(0); a < 4; a++ {
			for b := Value(0); b < 4; b++ {
				if k.Update(own, []Value{a, b}) != (Median{}).Update(own, []Value{a, b}) {
					t.Fatalf("KMedian(1) != Median on (%d,%d,%d)", own, a, b)
				}
			}
		}
	}
}

func TestKMedianLarger(t *testing.T) {
	k := NewKMedian(2)
	if k.Samples() != 4 {
		t.Fatalf("samples %d", k.Samples())
	}
	// median of {5, 1, 2, 8, 9} = 5
	if got := k.Update(5, []Value{1, 2, 8, 9}); got != 5 {
		t.Fatalf("got %d want 5", got)
	}
	// median of {0, 1, 1, 9, 9} = 1
	if got := k.Update(0, []Value{1, 1, 9, 9}); got != 1 {
		t.Fatalf("got %d want 1", got)
	}
}

func TestKMedianPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKMedian(0)
}

func TestVoter(t *testing.T) {
	if got := (Voter{}).Update(5, []Value{3}); got != 3 {
		t.Fatalf("voter: %d", got)
	}
	if (Voter{}).Samples() != 1 {
		t.Fatal("samples")
	}
}

func TestNames(t *testing.T) {
	names := map[string]Rule{
		"median":           Median{},
		"majority":         Majority{},
		"minimum":          Minimum{},
		"maximum":          Maximum{},
		"mean":             Mean{},
		"voter":            Voter{},
		"median-4choices":  NewKMedian(2),
		"median-10choices": NewKMedian(5),
	}
	for want, r := range names {
		if r.Name() != want {
			t.Errorf("Name() = %q want %q", r.Name(), want)
		}
	}
}

// Property: every rule except Mean outputs one of its inputs (validity at
// the kernel level).
func TestQuickValidityOfSelectingRules(t *testing.T) {
	selecting := []Rule{Median{}, Majority{}, Minimum{}, Maximum{}, Voter{}, NewKMedian(2)}
	f := func(own Value, s0, s1, s2, s3 Value) bool {
		for _, r := range selecting {
			s := []Value{s0, s1, s2, s3}[:r.Samples()]
			got := r.Update(own, s)
			found := got == own
			for _, v := range s {
				if got == v {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Median output is between min and max of its three inputs.
func TestQuickMedianBetween(t *testing.T) {
	f := func(own, a, b Value) bool {
		got := (Median{}).Update(own, []Value{a, b})
		xs := []Value{own, a, b}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return got == xs[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean output lies within [min, max] of the inputs (contraction),
// for inputs small enough not to overflow.
func TestQuickMeanContraction(t *testing.T) {
	f := func(ownRaw, aRaw, bRaw int32) bool {
		own, a, b := Value(ownRaw), Value(aRaw), Value(bRaw)
		got := (Mean{}).Update(own, []Value{a, b})
		lo, hi := own, own
		for _, v := range []Value{a, b} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: KMedian is permutation-invariant in its samples.
func TestQuickKMedianSymmetric(t *testing.T) {
	k := NewKMedian(2)
	f := func(own, a, b, c, d Value) bool {
		x := k.Update(own, []Value{a, b, c, d})
		y := k.Update(own, []Value{d, c, b, a})
		z := k.Update(own, []Value{b, d, a, c})
		return x == y && y == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// orderStatUpdate is what a rule with order-statistic form (s, down, up)
// returns: the down-th smallest sample when at least down samples lie
// below own, the up-th largest when at least up lie above, else own.
func orderStatUpdate(own Value, sampled []Value, down, up int) Value {
	sorted := slices.Sorted(slices.Values(sampled))
	var below, above int
	for _, v := range sampled {
		if v < own {
			below++
		} else if v > own {
			above++
		}
	}
	switch {
	case below >= down:
		return sorted[down-1]
	case above >= up:
		return sorted[len(sorted)-up]
	}
	return own
}

// TestOrderStatFormsMatchUpdate: every rule that opts into the count
// engine's order-statistic round gives a form (s, down, up) that agrees
// with its Update on every own value and sample tuple over a four-value
// support (ties included), with s = Samples() and down + up > s; majority
// and mean have no such form and must not claim one.
func TestOrderStatFormsMatchUpdate(t *testing.T) {
	support := []Value{-3, 1, 2, 8}
	for _, r := range []Rule{Median{}, Minimum{}, Maximum{}, Voter{}, NewKMedian(1), NewKMedian(2), NewKMedian(3)} {
		os, ok := r.(model.OrderStatRule)
		if !ok {
			t.Errorf("%s has no order-statistic form", r.Name())
			continue
		}
		s, down, up := os.OrderStat()
		if s != r.Samples() || down < 1 || up < 1 || down+up <= s {
			t.Errorf("%s: form (s=%d, down=%d, up=%d) with %d samples", r.Name(), s, down, up, r.Samples())
			continue
		}
		sample := make([]Value, s)
		var walk func(i int)
		walk = func(i int) {
			if i < s {
				for _, v := range support {
					sample[i] = v
					walk(i + 1)
				}
				return
			}
			for _, own := range support {
				if got, want := r.Update(own, sample), orderStatUpdate(own, sample, down, up); got != want {
					t.Fatalf("%s(%d, %v) = %d, order-statistic form gives %d", r.Name(), own, sample, got, want)
				}
			}
		}
		walk(0)
	}
	for _, r := range []Rule{Majority{}, Mean{}} {
		if _, ok := r.(model.OrderStatRule); ok {
			t.Errorf("%s claims an order-statistic form", r.Name())
		}
	}
}

// TestKMedianUpdateNoAllocs: KMedian selects its median in a stack buffer,
// so a call allocates nothing for K ≤ 8.
func TestKMedianUpdateNoAllocs(t *testing.T) {
	for k := 1; k <= 8; k++ {
		r := NewKMedian(k)
		sampled := make([]Value, 2*k)
		for i := range sampled {
			sampled[i] = Value((i * 7) % 5)
		}
		var sink Value
		if avg := testing.AllocsPerRun(100, func() { sink += r.Update(2, sampled) }); avg != 0 {
			t.Errorf("K=%d: %v allocs per Update", k, avg)
		}
	}
}

// TestKMedianMatchesSortedMedian: KMedian's selection returns the middle
// of own and its samples sorted, on random inputs with many ties, for K on
// both sides of the stack buffer's limit, and leaves the samples as they
// were.
func TestKMedianMatchesSortedMedian(t *testing.T) {
	g := rng.NewXoshiro256(5)
	for _, k := range []int{2, 3, 5, 8, 9, 20} {
		r := NewKMedian(k)
		for trial := 0; trial < 500; trial++ {
			own := Value(g.Intn(6))
			sampled := make([]Value, 2*k)
			for i := range sampled {
				sampled[i] = Value(g.Intn(6))
			}
			before := slices.Clone(sampled)
			all := slices.Sorted(slices.Values(append([]Value{own}, sampled...)))
			if got, want := r.Update(own, sampled), all[k]; got != want {
				t.Fatalf("K=%d: median(%d, %v) = %d, want %d", k, own, sampled, got, want)
			}
			if !slices.Equal(sampled, before) {
				t.Fatalf("K=%d: Update reordered its samples", k)
			}
		}
	}
}
