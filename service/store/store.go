// Package store is the file-backed persistence layer behind the service's
// result cache and job history: an append-only log of CRC-framed JSON
// records, one per completed run, fsynced on every commit and compacted on
// open. It has no dependencies beyond the standard library and package
// engine, and no knowledge of the service's locking or HTTP layers — the
// service package adapts *Log to its Store interface.
//
// # On-disk format (version 1)
//
// A store file is a 16-byte header followed by zero or more frames:
//
//	header  = "consensus-store" (15 bytes) || version (1 byte, 0x01)
//	frame   = length (4 bytes LE) || crc (4 bytes LE) || payload
//	payload = the JSON encoding of one Run (see EncodeRun)
//
// The crc is the CRC-32 (Castagnoli) of the payload bytes. The final
// header byte is the format version: readers refuse files whose version
// they do not know, and any change to the framing or the Run codec that
// is not purely additive must bump FormatVersion. Cache keys are
// canonical spec hashes, which may change from release to release — the
// version byte is what lets a reader reject a store written under an
// incompatible codec instead of serving stale entries under new keys.
//
// # Recovery and compaction
//
// Open scans the whole file, streaming frame by frame. A truncated tail
// (a partial frame, e.g. from a crash mid-append) or a frame whose CRC
// does not match ends the scan: everything from the bad frame on is
// dropped, everything before it is kept — append-only framing means
// bytes after a corrupt frame cannot be trusted to be frame-aligned. A
// frame whose CRC matches but whose payload this binary cannot decode
// (e.g. a run of a kind it does not register, or a spec encoded under a
// different engine.SpecVersion) is preserved opaquely: not loaded, but
// never destroyed, so a fuller (or older) binary can still read it
// later. When records were dropped, or the same spec hash appears more
// than once (later records win), Open rewrites the file compacted —
// survivors plus opaque frames — through an fsynced temp file renamed
// into place, so a crash during compaction leaves either the old or the
// new file, never a mix. The temp file is flocked before the rename, so
// the store path never names an unlocked inode: a second daemon starting
// mid-compaction still fails fast.
//
// # Retention
//
// OpenWithPolicy bounds the store for years of sustained traffic: a
// Policy sets a byte budget (MaxBytes — the newest records that fit are
// kept, everything older is dropped) and an age bound (MaxAge — records
// whose Finished timestamp is older are dropped; records and opaque
// frames whose age is unknown are never age-dropped). The policy is
// applied at open and, while the log is live, by a background compaction
// goroutine kicked whenever the reclaimable bytes — superseded duplicates
// plus the live excess over MaxBytes — exceed Policy.CompactAfter.
// Dropped spec hashes are reported through OnDrop so the owning cache can
// evict in step with the disk.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/engine"
)

// FormatVersion is the store format version byte, the final byte of the
// file header. Version 1: CRC-32C framed JSON Run records.
const FormatVersion = 1

// magic is the header prefix identifying a store file.
const magic = "consensus-store"

const (
	headerSize      = len(magic) + 1
	frameHeaderSize = 8
	// maxPayload bounds a frame's declared payload length; anything larger
	// is treated as corruption (a flipped length byte must not make the
	// reader attempt a multi-gigabyte allocation).
	maxPayload = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("store: log is closed")

// Header returns the version-1 file header: the magic followed by the
// format version byte.
func Header() []byte {
	return append([]byte(magic), FormatVersion)
}

// Run is the persisted form of one completed run: the job metadata, the
// spec, its canonical hash (the cache key), the result and the captured
// round records. Decoding resolves the spec's kind through the engine
// registry, so a binary can only reload runs of kinds it has registered.
type Run struct {
	// ID is the job id the run completed under ("" for runs persisted
	// outside the job lifecycle).
	ID string `json:"id,omitempty"`
	// SpecHash is the canonical spec hash — the result-cache key.
	SpecHash string `json:"spec_hash"`
	// RequestID is the X-Request-Id of the submission that created the
	// run's job, for correlating persisted runs with access logs.
	RequestID string `json:"request_id,omitempty"`
	// Spec is the normalized spec the run executed.
	Spec engine.Spec `json:"spec"`
	// Result is the run's outcome, effective seed included.
	Result engine.Result `json:"result"`
	// Records is the captured round-by-round stream; Truncated counts
	// rounds beyond the service's per-job record bound.
	Records   []engine.Record `json:"records,omitempty"`
	Truncated int             `json:"truncated,omitempty"`
	// Created, Started and Finished are the job's lifecycle timestamps.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// EncodeRun renders a Run as its frame payload — deterministic for a
// normalized spec (the spec codec sorts keys), so encode∘decode∘encode is
// byte-identical.
func EncodeRun(r Run) ([]byte, error) { return json.Marshal(r) }

// DecodeRun parses a frame payload. The spec's kind must be registered
// and its canonical encoding must carry the current engine.SpecVersion —
// a record persisted under a different spec codec must never be
// reinterpreted (or served) under this binary's keys; recovery preserves
// such frames opaquely instead (errors.Is(err, engine.ErrSpecVersion)).
func DecodeRun(payload []byte) (Run, error) {
	var r Run
	if err := json.Unmarshal(payload, &r); err != nil {
		return Run{}, err
	}
	if r.Spec.V != engine.SpecVersion {
		return Run{}, fmt.Errorf("%w: persisted spec has v%d, this binary speaks v%d",
			engine.ErrSpecVersion, r.Spec.V, engine.SpecVersion)
	}
	return r, nil
}

// Stats reports a log's lifetime counters, surfaced on /v1/metrics.
type Stats struct {
	// RecordsLoaded is the number of records the last Open recovered;
	// RecordsDropped the number it discarded (corrupt tail, CRC mismatch,
	// or superseded by a later record for the same spec hash);
	// RecordsUnknown the number of intact records this binary cannot
	// decode (e.g. a kind it does not register) — preserved on disk
	// through compactions, but not loaded.
	RecordsLoaded  int64 `json:"records_loaded"`
	RecordsDropped int64 `json:"records_dropped"`
	RecordsUnknown int64 `json:"records_unknown"`
	// RecordsOldSpec counts intact records whose spec was encoded under a
	// different engine.SpecVersion — the codec-migration case. Like
	// unknown kinds they are preserved on disk, never loaded: serving
	// them would mean reinterpreting another codec's bytes under this
	// binary's cache keys.
	RecordsOldSpec int64 `json:"records_old_spec"`
	// RecordsAppended counts successful Append calls on this handle.
	RecordsAppended int64 `json:"records_appended"`
	// Bytes is the current file size, header included.
	Bytes int64 `json:"bytes"`
	// Compactions counts rewrites (1 when Open compacted, 0 otherwise).
	Compactions int64 `json:"compactions"`
	// GCRecordsDropped counts records the retention policy dropped (age
	// or byte budget), at open and by background compaction;
	// GCBytesReclaimed the file bytes those rewrites returned;
	// GCCompactions the background (and forced) retention rewrites.
	GCRecordsDropped int64 `json:"gc_records_dropped"`
	GCBytesReclaimed int64 `json:"gc_bytes_reclaimed"`
	GCCompactions    int64 `json:"gc_compactions"`
}

// Policy bounds a store's disk footprint under sustained traffic. The
// zero Policy retains everything (the pre-retention behavior).
type Policy struct {
	// MaxBytes budgets the framed region (file size minus the 16-byte
	// header): the newest records that fit are kept, older ones — opaque
	// frames included — are dropped at open and by background compaction.
	// 0 = unbounded.
	MaxBytes int64
	// MaxAge drops records whose Finished timestamp is older than now -
	// MaxAge. Records without a Finished timestamp, and opaque frames
	// (whose age this binary cannot read), are never age-dropped — only
	// the byte budget may remove data the policy cannot date. 0 = no age
	// bound.
	MaxAge time.Duration
	// CompactAfter is the background-compaction trigger: a retention
	// rewrite runs once the reclaimable bytes — superseded duplicates
	// plus the live excess over MaxBytes — reach this many bytes.
	// <=0 = MaxBytes/4 clamped to [1, 16 MiB], or 1 MiB when MaxBytes is
	// unset.
	CompactAfter int64
}

// enabled reports whether the policy bounds anything (and therefore
// whether the background compaction goroutine runs).
func (p Policy) enabled() bool { return p.MaxBytes > 0 || p.MaxAge > 0 }

// threshold resolves the background-compaction trigger in bytes.
func (p Policy) threshold() int64 {
	if p.CompactAfter > 0 {
		return p.CompactAfter
	}
	if p.MaxBytes > 0 {
		t := p.MaxBytes / 4
		if t < 1 {
			t = 1
		}
		if t > 16<<20 {
			t = 16 << 20
		}
		return t
	}
	return 1 << 20
}

// Log is an open store file. Open recovers and compacts it; Append
// commits one record with an fsync; Load replays what Open recovered.
// Append, Stats and Compact are safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	pol    Policy
	stats  Stats
	loaded []Run

	// live maps each decodable record's spec hash to its current frame
	// size; opaqueBytes totals the preserved frames without a usable
	// hash; deadBytes totals frames superseded by a later append. The
	// three drive the background-compaction trigger without rescanning,
	// so live is kept only under a retention policy (nil otherwise): a
	// policy-less log would otherwise hold one hash per run ever appended,
	// and its forced Compact decides from the rescan instead.
	live        map[string]int64
	opaqueBytes int64
	deadBytes   int64

	// onDrop, when set, receives the spec hashes a retention compaction
	// dropped, outside the log's lock (see OnDrop).
	onDrop func([]string)

	gcKick chan struct{}
	gcDone chan struct{}
}

// Open opens (or creates) the store file at path with no retention policy,
// recovering every intact record and compacting the file when anything was
// dropped or superseded. The recovered records are replayed by Load, in
// append order. Recovery streams the file frame by frame, so transient
// memory is one frame plus the decoded records — never a second, raw copy
// of the whole file.
func Open(path string) (*Log, error) { return OpenWithPolicy(path, Policy{}) }

// OpenWithPolicy is Open under a retention Policy: beyond recovery and
// dedupe, records outside the policy's age or byte budget are dropped by
// the opening rewrite, and a background goroutine keeps the live log
// within budget (see Policy and Compact).
func OpenWithPolicy(path string, pol Policy) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f.Fd()); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s is locked by another process: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, path: path, pol: pol}
	if pol.enabled() {
		l.live = map[string]int64{}
	}
	if info.Size() == 0 {
		if err := l.writeAndSync(Header()); err != nil {
			f.Close()
			return nil, err
		}
		l.stats.Bytes = int64(headerSize)
		l.startGC()
		return l, nil
	}
	br := bufio.NewReaderSize(f, 64<<10)
	hdr := make([]byte, headerSize)
	if n, err := io.ReadFull(br, hdr); err != nil {
		// A short file that prefix-matches our header is our own
		// interrupted creation (crash before the header write was
		// durable), not a foreign file: reinitialize it instead of
		// bricking the path.
		if err == io.ErrUnexpectedEOF && bytes.Equal(hdr[:n], Header()[:n]) {
			if err := l.reinit(); err != nil {
				f.Close()
				return nil, err
			}
			l.startGC()
			return l, nil
		}
		f.Close()
		return nil, fmt.Errorf("store: %s is not a store file", path)
	}
	if !bytes.HasPrefix(hdr, []byte(magic)) {
		f.Close()
		return nil, fmt.Errorf("store: %s is not a store file", path)
	}
	if v := hdr[len(magic)]; v != FormatVersion {
		f.Close()
		return nil, fmt.Errorf("store: %s has format version %d, this binary reads version %d", path, v, FormatVersion)
	}
	frames, dropped, dirty, err := scanReader(br)
	if err != nil {
		f.Close()
		return nil, err
	}
	kept, _, gcDropped := applyPolicy(frames, pol, time.Now())
	if gcDropped > 0 {
		dirty = true
		l.stats.GCRecordsDropped = gcDropped
	}
	for _, fr := range kept {
		switch {
		case fr.decoded:
			l.loaded = append(l.loaded, fr.run)
			if l.live != nil {
				l.live[fr.run.SpecHash] = fr.size
			}
		case fr.oldSpec:
			l.stats.RecordsOldSpec++
			l.opaqueBytes += fr.size
		default:
			l.stats.RecordsUnknown++
			l.opaqueBytes += fr.size
		}
	}
	l.stats.RecordsLoaded = int64(len(l.loaded))
	l.stats.RecordsDropped = dropped
	if dirty {
		preSize := info.Size()
		if err := l.compact(kept); err != nil {
			f.Close()
			return nil, err
		}
		l.stats.Compactions++
		if gcDropped > 0 {
			l.stats.GCCompactions++
			if rec := preSize - l.stats.Bytes; rec > 0 {
				l.stats.GCBytesReclaimed = rec
			}
		}
	} else {
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, err
		}
		l.stats.Bytes = info.Size()
	}
	l.startGC()
	return l, nil
}

// frameRec is one CRC-valid frame as scanned. Frames this binary can
// decode carry their Run (the payload is re-encoded at compaction time,
// deterministically); frames it cannot — e.g. a run of a kind not
// registered here, or a spec under a foreign engine.SpecVersion (oldSpec)
// — keep their raw payload so a compaction carries them through opaquely
// instead of destroying intact data. size is the framed on-disk size
// (header + payload), which the retention byte budget is charged against.
type frameRec struct {
	run     Run
	payload []byte
	decoded bool
	oldSpec bool
	size    int64
}

// scanReader walks the framed region of a store file. It returns the
// surviving frames in append order (later records for the same spec hash
// replace earlier ones in place), the number of records dropped, and
// whether the file needs a compacting rewrite — only actual corruption
// (truncated or CRC-failing tail) or superseded duplicates count as
// dropped and dirty; undecodable-but-intact frames are preserved. err is
// only a genuine read failure, which must abort the open rather than
// compact surviving records over unreadable ones.
func scanReader(r io.Reader) (frames []frameRec, dropped int64, dirty bool, err error) {
	index := map[string]int{}
	hdr := make([]byte, frameHeaderSize)
	for {
		if _, e := io.ReadFull(r, hdr); e != nil {
			switch e {
			case io.EOF: // clean end on a frame boundary
				return frames, dropped, dirty, nil
			case io.ErrUnexpectedEOF: // partial frame header: crash mid-append
				return frames, dropped, true, nil
			default:
				return frames, dropped, dirty, e
			}
		}
		length := binary.LittleEndian.Uint32(hdr)
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length > maxPayload {
			return frames, dropped + 1, true, nil
		}
		payload := make([]byte, length)
		if _, e := io.ReadFull(r, payload); e != nil {
			if e == io.EOF || e == io.ErrUnexpectedEOF { // truncated payload
				return frames, dropped + 1, true, nil
			}
			return frames, dropped, dirty, e
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			// A frame that fails its CRC poisons everything after it:
			// if the corrupt byte was in the length field, the rest of
			// the file is not frame-aligned.
			return frames, dropped + 1, true, nil
		}
		size := int64(frameHeaderSize) + int64(length)
		run, e := DecodeRun(payload)
		if e != nil || run.SpecHash == "" {
			// CRC-intact but not decodable by this binary (a kind it does
			// not register, a spec under a different engine.SpecVersion, or
			// a record without a cache key): preserved opaquely, not
			// loaded. Compaction must never destroy intact data a fuller
			// (or differently-versioned) binary could still read.
			frames = append(frames, frameRec{
				payload: payload,
				oldSpec: errors.Is(e, engine.ErrSpecVersion),
				size:    size,
			})
			continue
		}
		if i, dup := index[run.SpecHash]; dup {
			frames[i] = frameRec{run: run, decoded: true, size: size} // later write wins
			dropped++
			dirty = true
			continue
		}
		index[run.SpecHash] = len(frames)
		frames = append(frames, frameRec{run: run, decoded: true, size: size})
	}
}

// applyPolicy filters frames under pol: age-expired records first, then
// the newest frames that fit the byte budget — opaque frames compete for
// the budget too, since preserved data still occupies disk, but only
// records whose Finished timestamp this binary can read are ever
// age-dropped. It returns the survivors in append order, the dropped spec
// hashes (decodable records only), and the total frames dropped.
func applyPolicy(frames []frameRec, pol Policy, now time.Time) ([]frameRec, []string, int64) {
	if !pol.enabled() {
		return frames, nil, 0
	}
	var hashes []string
	var n int64
	if pol.MaxAge > 0 {
		cutoff := now.Add(-pol.MaxAge)
		kept := make([]frameRec, 0, len(frames))
		for _, fr := range frames {
			if fr.decoded && !fr.run.Finished.IsZero() && fr.run.Finished.Before(cutoff) {
				hashes = append(hashes, fr.run.SpecHash)
				n++
				continue
			}
			kept = append(kept, fr)
		}
		frames = kept
	}
	if pol.MaxBytes > 0 {
		// Newest-first budget: walk back from the tail, keeping frames
		// while they fit; everything older than the first overflow goes.
		var total int64
		cut := 0
		for i := len(frames) - 1; i >= 0; i-- {
			if total+frames[i].size > pol.MaxBytes {
				cut = i + 1
				break
			}
			total += frames[i].size
		}
		for _, fr := range frames[:cut] {
			if fr.decoded {
				hashes = append(hashes, fr.run.SpecHash)
			}
			n++
		}
		frames = frames[cut:]
	}
	return frames, hashes, n
}

// scan is scanReader over an in-memory framed region, returning only the
// decoded runs (tests and fuzzing; a bytes.Reader cannot fail).
func scan(data []byte) ([]Run, int64, bool) {
	frames, dropped, dirty, _ := scanReader(bytes.NewReader(data))
	var runs []Run
	for _, fr := range frames {
		if fr.decoded {
			runs = append(runs, fr.run)
		}
	}
	return runs, dropped, dirty
}

// renameFile and fsyncFile are indirection points so tests can inject
// rename/sync failures into compact's error paths; production code never
// overrides them. testHookAfterRename, when set, runs in the instant after
// the compacted file is renamed into place and before compact returns —
// the window in which a pre-fix compact left the store path naming an
// unlocked inode.
var (
	renameFile          = os.Rename
	fsyncFile           = func(f *os.File) error { return f.Sync() }
	testHookAfterRename func()
)

// compact rewrites the store as header + the surviving frames (decoded
// runs re-encoded, opaque frames carried through verbatim), via a temp
// file in the same directory renamed over the original. The temp file is
// flocked *before* the rename — a flock follows the inode through rename —
// so there is no instant in which the store path names an unlocked file
// that a second daemon could grab. On success the temp descriptor becomes
// the live one (no reopen, so no reopen failure modes); on any failure the
// original descriptor and its lock are untouched and only the temp file is
// cleaned up. Callers hold l.mu or own l exclusively during Open.
func (l *Log) compact(frames []frameRec) error {
	dir, base := filepath.Split(l.path)
	tmp, err := os.CreateTemp(dir, base+".compact-*")
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		if !renamed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	size := int64(headerSize)
	if _, err := tmp.Write(Header()); err != nil {
		return err
	}
	var live map[string]int64
	if l.pol.enabled() {
		live = make(map[string]int64, len(frames))
	}
	var opaque int64
	for _, fr := range frames {
		payload := fr.payload
		if fr.decoded {
			if payload, err = EncodeRun(fr.run); err != nil {
				return err
			}
		}
		n, err := tmp.Write(frame(payload))
		if err != nil {
			return err
		}
		switch {
		case !fr.decoded:
			opaque += int64(n)
		case live != nil:
			live[fr.run.SpecHash] = int64(n)
		}
		size += int64(n)
	}
	// CreateTemp's 0600 must not leak onto the store: keep the original
	// file's mode so sidecar readers (backups, monitoring) survive the
	// rewrite.
	if info, err := l.f.Stat(); err == nil {
		_ = tmp.Chmod(info.Mode().Perm())
	}
	if err := fsyncFile(tmp); err != nil {
		return err
	}
	if err := lockFile(tmp.Fd()); err != nil {
		return fmt.Errorf("store: locking compacted file: %w", err)
	}
	if err := renameFile(tmp.Name(), l.path); err != nil {
		return err
	}
	renamed = true
	if h := testHookAfterRename; h != nil {
		h()
	}
	syncDir(dir)
	l.f.Close()
	l.f = tmp
	l.stats.Bytes = size
	l.live = live
	l.opaqueBytes = opaque
	l.deadBytes = 0
	return nil
}

// reinit rewrites the file as a fresh, empty store (header only).
func (l *Log) reinit() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := l.writeAndSync(Header()); err != nil {
		return err
	}
	l.stats.Bytes = int64(headerSize)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash; on
// platforms where directories cannot be fsynced the rename is still
// atomic, so errors are ignored.
func syncDir(dir string) {
	if dir == "" {
		dir = "."
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// frame wraps a payload in the length+CRC frame header.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// Load replays the records Open recovered, in append order, then releases
// them. A second call is a no-op. apply returning an error stops the
// replay and returns that error (already-applied records stay applied).
func (l *Log) Load(apply func(Run) error) error {
	l.mu.Lock()
	runs := l.loaded
	l.loaded = nil
	l.mu.Unlock()
	for _, r := range runs {
		if err := apply(r); err != nil {
			return err
		}
	}
	return nil
}

// Append commits one record: a single frame write followed by an fsync,
// so a record either survives a crash whole or is dropped by the next
// Open's tail recovery.
func (l *Log) Append(r Run) error {
	payload, err := EncodeRun(r)
	if err != nil {
		return err
	}
	// A frame the reader would refuse must never be written: an oversized
	// record would not just be lost itself, it would end the recovery
	// scan and take every record appended after it along.
	if len(payload) > maxPayload {
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxPayload)
	}
	buf := frame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if err := l.writeAndSync(buf); err != nil {
		return err
	}
	l.stats.RecordsAppended++
	l.stats.Bytes += int64(len(buf))
	if l.live != nil {
		if prev, dup := l.live[r.SpecHash]; dup {
			l.deadBytes += prev // superseded in place; reclaimable by the next rewrite
		}
		l.live[r.SpecHash] = int64(len(buf))
		l.maybeKickGC()
	}
	return nil
}

// reclaimable returns the bytes a retention rewrite would free right now:
// frames superseded by later appends plus the live excess over MaxBytes.
// Callers hold l.mu.
func (l *Log) reclaimable() int64 {
	rec := l.deadBytes
	if l.pol.MaxBytes > 0 {
		framed := l.stats.Bytes - int64(headerSize) - l.deadBytes
		if excess := framed - l.pol.MaxBytes; excess > 0 {
			rec += excess
		}
	}
	return rec
}

// maybeKickGC nudges the background goroutine when the reclaimable bytes
// reach the policy threshold. Non-blocking: a kick while a pass is already
// queued coalesces. Callers hold l.mu.
func (l *Log) maybeKickGC() {
	if l.gcKick == nil || l.reclaimable() < l.pol.threshold() {
		return
	}
	select {
	case l.gcKick <- struct{}{}:
	default:
	}
}

// startGC launches the background retention goroutine when the policy
// bounds anything. Called once at the end of a successful open.
func (l *Log) startGC() {
	if !l.pol.enabled() {
		return
	}
	l.gcKick = make(chan struct{}, 1)
	l.gcDone = make(chan struct{})
	go l.gcLoop(l.gcKick, l.gcDone)
}

// gcLoop runs retention passes on kicks from Append and, when an age
// bound is set, on a timer (age expiry reclaims bytes without any append
// to notice it). Exits when Close closes the kick channel.
func (l *Log) gcLoop(kick <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var tick <-chan time.Time
	if l.pol.MaxAge > 0 {
		d := l.pol.MaxAge / 2
		if d < time.Second {
			d = time.Second
		}
		if d > 10*time.Minute {
			d = 10 * time.Minute
		}
		t := time.NewTicker(d)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case _, ok := <-kick:
			if !ok {
				return
			}
			l.runGC(false)
		case <-tick:
			l.runGC(false)
		}
	}
}

// runGC is one retention pass. Drop notifications go out after the lock
// is released, so an OnDrop callback may call back into the log.
func (l *Log) runGC(force bool) error {
	l.mu.Lock()
	hashes, err := l.compactLocked(force)
	onDrop := l.onDrop
	l.mu.Unlock()
	if err == nil && len(hashes) > 0 && onDrop != nil {
		onDrop(hashes)
	}
	return err
}

// compactLocked rescans the file, applies the policy, and rewrites when
// anything is reclaimable (threshold-gated unless forced): records the
// policy drops, or frames the rescan finds superseded or corrupt. The
// rewrite is built from what is actually durable on disk — the in-memory
// accounting only decides when to look. Callers hold l.mu.
func (l *Log) compactLocked(force bool) ([]string, error) {
	if l.f == nil {
		return nil, ErrClosed
	}
	if !force && l.reclaimable() < l.pol.threshold() {
		return nil, nil
	}
	if _, err := l.f.Seek(int64(headerSize), io.SeekStart); err != nil {
		return nil, err
	}
	frames, _, dirty, err := scanReader(bufio.NewReaderSize(l.f, 64<<10))
	if err != nil {
		l.f.Seek(0, io.SeekEnd)
		return nil, err
	}
	kept, hashes, gcDropped := applyPolicy(frames, l.pol, time.Now())
	if gcDropped == 0 && !dirty {
		_, err := l.f.Seek(0, io.SeekEnd)
		return nil, err
	}
	pre := l.stats.Bytes
	if err := l.compact(kept); err != nil {
		l.f.Seek(0, io.SeekEnd)
		return nil, err
	}
	l.stats.Compactions++
	l.stats.GCCompactions++
	l.stats.GCRecordsDropped += gcDropped
	if rec := pre - l.stats.Bytes; rec > 0 {
		l.stats.GCBytesReclaimed += rec
	}
	return hashes, nil
}

// Compact forces a retention pass now, regardless of the trigger
// threshold — operational tooling and tests. Nothing is rewritten when
// nothing is reclaimable. Dropped spec hashes are reported through OnDrop
// as usual.
func (l *Log) Compact() error { return l.runGC(true) }

// OnDrop registers fn to receive the spec hashes each retention rewrite
// drops, so the owning cache can evict in step with the disk. The callback
// runs outside the log's lock (it may call back into the log) but serially
// with respect to retention passes. Replaces any previous callback.
func (l *Log) OnDrop(fn func([]string)) {
	l.mu.Lock()
	l.onDrop = fn
	l.mu.Unlock()
}

// writeAndSync writes buf and fsyncs; callers hold l.mu (or own l
// exclusively during Open).
func (l *Log) writeAndSync(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	return l.f.Sync()
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close fsyncs and closes the file and drains the background retention
// goroutine. Further Appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	kick, done := l.gcKick, l.gcDone
	l.gcKick, l.gcDone = nil, nil
	l.mu.Unlock()
	// The goroutine may be mid-pass waiting on l.mu; it will find l.f nil
	// and bail, then observe the closed kick channel and exit.
	if kick != nil {
		close(kick)
		<-done
	}
	return err
}
