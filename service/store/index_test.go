package store

import (
	"path/filepath"
	"testing"
)

// TestPolicylessForcedCompactDedupes: a log without a retention policy
// keeps no per-run index, however many runs it appends, and a forced
// Compact still finds superseded duplicates from its rescan, rewrites
// them out, and leaves a clean log alone.
func TestPolicylessForcedCompactDedupes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.store")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(testRun(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.live != nil {
		t.Fatalf("policy-less log indexes %d runs", len(l.live))
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions != 0 {
		t.Fatalf("Compact rewrote a log without duplicates: %+v", st)
	}

	// Supersede runs 3 and 7; the later copies carry a new result.
	for _, i := range []int{3, 7} {
		r := testRun(t, i)
		r.Result.Rounds += 100
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().Bytes
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Compactions != 1 || st.Bytes >= before {
		t.Fatalf("forced compaction of duplicates: %+v (bytes before %d)", st, before)
	}
	if l.live != nil {
		t.Fatal("compaction built an index for a policy-less log")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	runs := loadAll(t, l)
	if len(runs) != 20 {
		t.Fatalf("reopened log holds %d runs, want 20", len(runs))
	}
	for i, r := range runs {
		want := testRun(t, i).Result.Rounds
		if i == 3 || i == 7 {
			want += 100
		}
		if r.SpecHash != testRun(t, i).SpecHash || r.Result.Rounds != want {
			t.Fatalf("run %d after compaction: %s rounds %d, want rounds %d", i, r.SpecHash, r.Result.Rounds, want)
		}
	}
}
