package randx

import (
	"testing"
)

// maxRule moves a ball to the larger of its own bin and its samples' bins,
// and records the moves.
type maxRule struct {
	moved map[int32]int64
}

func (r *maxRule) Next(own int, sample []int32) int32 {
	to := int32(own)
	for _, w := range sample {
		to = max(to, w)
	}
	return to
}

func (r *maxRule) Move(to int32, c int64) { r.moved[to] += c }

// TestRowsConservesBalls: every ball moves exactly once, to a bin its row
// reaches, for s = 0 (no samples: everyone stays), 1 and 3.
func TestRowsConservesBalls(t *testing.T) {
	counts := []int64{40, 0, 25, 35}
	var rows Rows
	for _, s := range []int{0, 1, 3} {
		rule := &maxRule{moved: map[int32]int64{}}
		rows.Round(g(uint64(s)+1), counts, s, rule)
		var total int64
		for to, c := range rule.moved {
			if to == 1 && c > 0 {
				t.Fatalf("s=%d: %d balls moved to the empty bin", s, c)
			}
			total += c
		}
		if total != 100 {
			t.Fatalf("s=%d: %d balls moved, want 100", s, total)
		}
		if s == 0 && (rule.moved[0] != 40 || rule.moved[2] != 25 || rule.moved[3] != 35) {
			t.Fatalf("s=0 must keep every ball: %v", rule.moved)
		}
		if s > 0 && rule.moved[3] < 35 {
			t.Fatalf("s=%d: the top bin lost balls under max: %v", s, rule.moved)
		}
	}
}

// TestRowsRoundAllocs: once the workspace has grown, a round allocates
// nothing.
func TestRowsRoundAllocs(t *testing.T) {
	counts := []int64{1000, 2000, 3000, 4000, 5000}
	rule := &maxRule{moved: map[int32]int64{}}
	var rows Rows
	r := g(9)
	rows.Round(r, counts, 2, rule)
	if avg := testing.AllocsPerRun(50, func() { rows.Round(r, counts, 2, rule) }); avg != 0 {
		t.Fatalf("steady-state Rows round allocates (%v allocs/round)", avg)
	}
}

// TestRowsCheaper pins the switch at n = k^(s+1).
func TestRowsCheaper(t *testing.T) {
	cases := []struct {
		n    int64
		k, s int
		want bool
	}{
		{125, 5, 2, true},
		{124, 5, 2, false},
		{25, 5, 1, true},
		{3124, 5, 4, false},
		{1 << 62, 1000, 2, true},
		{1 << 30, 1 << 20, 2, false}, // all-distinct-like support
	}
	for _, c := range cases {
		if got := RowsCheaper(c.n, c.k, c.s); got != c.want {
			t.Errorf("RowsCheaper(%d, %d, %d) = %v, want %v", c.n, c.k, c.s, got, c.want)
		}
	}
}
