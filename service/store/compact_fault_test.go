package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirtyStore writes a store whose next Open must compact: the same run
// appended twice leaves a superseded frame.
func dirtyStore(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "dirty.store")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	run := testRun(t, 0)
	if err := l.Append(run); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(run); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompactLockWindow is the regression test for the compaction lock
// window: compact used to rename the temp file into place and only then
// reopen + flock the new inode, leaving an instant in which the store
// path named an unlocked file a second daemon could grab. The fix locks
// the temp file before the rename (a flock follows the inode), so a
// second Open attempted exactly inside the old window must lose. On the
// pre-fix code the second Open succeeds here and this test fails.
func TestCompactLockWindow(t *testing.T) {
	path := dirtyStore(t, t.TempDir())

	var hookRan bool
	var secondErr error
	testHookAfterRename = func() {
		hookRan = true
		l2, err := Open(path)
		secondErr = err
		if err == nil {
			l2.Close()
		}
	}
	defer func() { testHookAfterRename = nil }()

	l, err := Open(path) // dirty → compacts → hook fires mid-window
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !hookRan {
		t.Fatal("compaction never happened; test exercised nothing")
	}
	if secondErr == nil {
		t.Fatal("second daemon acquired the store during the compaction window — exactly one must win")
	}
	if !strings.Contains(secondErr.Error(), "locked") {
		t.Fatalf("second open failed for the wrong reason: %v", secondErr)
	}

	// The winner is fully functional after the swap.
	if err := l.Append(testRun(t, 1)); err != nil {
		t.Fatalf("winner cannot append after compaction: %v", err)
	}
}

// TestCompactRenameFailure: an injected rename failure must leave the
// original descriptor (and its lock) as the only thing to clean up — Open
// fails, the lock is released, no temp file survives, and the store
// reopens intact.
func TestCompactRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := dirtyStore(t, dir)

	injected := errors.New("injected rename failure")
	renameFile = func(_, _ string) error { return injected }
	defer func() { renameFile = os.Rename }()

	if _, err := Open(path); !errors.Is(err, injected) {
		t.Fatalf("want injected rename error, got %v", err)
	}
	assertNoTempFiles(t, dir)

	renameFile = os.Rename
	l, err := Open(path)
	if err != nil {
		t.Fatalf("store must reopen after a failed compaction (lock leaked?): %v", err)
	}
	defer l.Close()
	if runs := loadAll(t, l); len(runs) != 1 {
		t.Fatalf("want the original deduped run, got %+v", runs)
	}
}

// TestCompactSyncFailure: same audit for the temp-file fsync path.
func TestCompactSyncFailure(t *testing.T) {
	dir := t.TempDir()
	path := dirtyStore(t, dir)

	injected := errors.New("injected sync failure")
	fsyncFile = func(*os.File) error { return injected }
	defer func() { fsyncFile = func(f *os.File) error { return f.Sync() } }()

	if _, err := Open(path); !errors.Is(err, injected) {
		t.Fatalf("want injected sync error, got %v", err)
	}
	assertNoTempFiles(t, dir)

	fsyncFile = func(f *os.File) error { return f.Sync() }
	l, err := Open(path)
	if err != nil {
		t.Fatalf("store must reopen after a failed compaction (lock leaked?): %v", err)
	}
	defer l.Close()
	if runs := loadAll(t, l); len(runs) != 1 {
		t.Fatalf("want the original deduped run, got %+v", runs)
	}
}

// TestRuntimeCompactFailureKeepsLogLive: a rename failure during a forced
// runtime compaction must not kill the live log — the original descriptor
// stays, appends keep working, and a later compaction succeeds.
func TestRuntimeCompactFailureKeepsLogLive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.store")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	run := testRun(t, 0)
	if err := l.Append(run); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(run); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected rename failure")
	renameFile = func(_, _ string) error { return injected }
	if err := l.Compact(); !errors.Is(err, injected) {
		renameFile = os.Rename
		t.Fatalf("want injected rename error, got %v", err)
	}
	renameFile = os.Rename
	assertNoTempFiles(t, dir)

	if err := l.Append(testRun(t, 1)); err != nil {
		t.Fatalf("log dead after failed compaction: %v", err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("compaction after recovery: %v", err)
	}
	if st := l.Stats(); st.GCCompactions != 1 {
		t.Fatalf("stats after recovered compaction: %+v", st)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.compact-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("compaction leaked temp files: %v", matches)
	}
}

// TestAppendFailureCostsOnlyItsRecord: a write that fails halfway through
// its frame, or an fsync that fails, costs only the record being appended.
// Every record whose Append returned nil, the next one included, survives
// a reopen, and the reopen finds nothing to drop.
func TestAppendFailureCostsOnlyItsRecord(t *testing.T) {
	injected := errors.New("injected append failure")
	for _, tc := range []struct {
		name   string
		inject func()
	}{
		{"short write", func() {
			writeFile = func(f *os.File, b []byte) (int, error) {
				n, _ := f.Write(b[:len(b)/2])
				return n, injected
			}
		}},
		{"fsync", func() { fsyncFile = func(*os.File) error { return injected } }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func(w func(*os.File, []byte) (int, error), s func(*os.File) error) {
				writeFile, fsyncFile = w, s
			}(writeFile, fsyncFile)
			path := filepath.Join(t.TempDir(), "append.store")
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			first, lost, last := testRun(t, 0), testRun(t, 1), testRun(t, 2)
			if err := l.Append(first); err != nil {
				t.Fatal(err)
			}
			w, s := writeFile, fsyncFile
			tc.inject()
			err = l.Append(lost)
			writeFile, fsyncFile = w, s
			if !errors.Is(err, injected) {
				t.Fatalf("want the injected error, got %v", err)
			}
			if err := l.Append(last); err != nil {
				t.Fatalf("append after a failed one: %v", err)
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
			if len(runs) != 2 || runs[0].SpecHash != first.SpecHash || runs[1].SpecHash != last.SpecHash {
				t.Fatalf("reload returned %d runs; want the 2 whose Append returned nil", len(runs))
			}
			if st := l.Stats(); st.RecordsDropped != 0 || st.Compactions != 0 {
				t.Fatalf("reopen found a torn frame: %+v", st)
			}
		})
	}
}

// TestAppendRefusedAfterFailedUndo: when the file cannot be cut back after
// a failed append, later appends are refused rather than written behind
// the torn frame.
func TestAppendRefusedAfterFailedUndo(t *testing.T) {
	defer func(w func(*os.File, []byte) (int, error)) { writeFile = w }(writeFile)
	l, err := Open(filepath.Join(t.TempDir(), "broken.store"))
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected write failure")
	writeFile = func(f *os.File, _ []byte) (int, error) {
		f.Close() // so the truncate that would undo the write fails too
		return 0, injected
	}
	if err := l.Append(testRun(t, 0)); !errors.Is(err, injected) {
		t.Fatalf("want the injected error, got %v", err)
	}
	writeFile = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
	if err := l.Append(testRun(t, 1)); err == nil || !strings.Contains(err.Error(), "could not be cut off") {
		t.Fatalf("append on a log with a torn tail: got %v, want a refusal", err)
	}
}
