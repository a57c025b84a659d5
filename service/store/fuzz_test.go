package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/engine"

	// Every kind's Example seeds FuzzDecodeRun.
	_ "repro/internal/exact"
	_ "repro/internal/gossip"
	_ "repro/multidim"
	_ "repro/robust"
)

// FuzzOpen feeds arbitrary bytes to Open as the framed region of a store
// file: recovery must never panic, never invent records, and always
// produce a file that reopens clean (recovery is idempotent).
func FuzzOpen(f *testing.F) {
	var valid bytes.Buffer
	for i := 0; i < 3; i++ {
		run, err := makeRun(i)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := EncodeRun(run)
		if err != nil {
			f.Fatal(err)
		}
		valid.Write(frame(payload))
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5]) // truncated tail
	flipped := bytes.Clone(valid.Bytes())
	flipped[9] ^= 0x40 // inside the first frame's CRC/payload
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}) // absurd declared length

	f.Fuzz(func(t *testing.T, framed []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.store")
		if err := os.WriteFile(path, append(Header(), framed...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatalf("Open must recover, not fail, on a well-headed file: %v", err)
		}
		runs := loadAll(t, l)
		st := l.Stats()
		if int64(len(runs)) != st.RecordsLoaded {
			t.Fatalf("loaded %d runs but stats claim %d", len(runs), st.RecordsLoaded)
		}
		for i, r := range runs {
			if r.SpecHash == "" {
				t.Fatalf("recovered record %d has no spec hash", i)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(path)
		if err != nil {
			t.Fatalf("recovered file does not reopen: %v", err)
		}
		st2 := l2.Stats()
		l2.Close()
		if st2.RecordsLoaded != st.RecordsLoaded || st2.RecordsUnknown != st.RecordsUnknown ||
			st2.RecordsDropped != 0 || st2.Compactions != 0 {
			t.Fatalf("recovery not idempotent: first %+v then %+v", st, st2)
		}
	})
}

// FuzzDecodeRun checks DecodeRun against refDecodeRun, encoding/json into
// method-free mirrors of Run, engine.Result and engine.Record: on any
// payload both fail or both succeed, agree on whether the failure is
// engine.ErrSpecVersion, and otherwise return deeply equal runs. A payload
// that decodes must also re-encode to a byte-stable form, and EncodeRun
// must write what refEncodeRun writes, byte for byte or with the same
// error.
func FuzzDecodeRun(f *testing.F) {
	checkRefRun(f)
	for _, payload := range seedPayloads(f) {
		f.Add(payload)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"spec_hash":"x","spec":{"kind":"nope"}}`))
	f.Add([]byte(`null`))
	const spec = `"spec":{"kind":"exact","n":24,"start":6,"v":1}`
	for _, s := range []string{
		// Repeated members: a result merges, records go element by element.
		`{` + spec + `,"result":{"rounds":2,"timing":{"run_seconds":1}},"result":{"winner":3,"timing":{"total_seconds":2}}}`,
		`{` + spec + `,"records":[{"n":5,"leader":2}],"records":[{"round":2}]}`,
		`{` + spec + `,"id":"a","ID":"b","records":[],"truncated":-1}`,
		// A bad record before a spec under another version.
		`{"records":[{"n":"x"}],"spec":{"kind":"exact","n":24,"start":6,"v":2}}`,
		`{` + spec + `,"records":[null,{},{"leader_point":[1,2]}],"created":"2026-01-02T03:04:05+01:00"}`,
		`{` + spec + `,"result":{"parallel_time":1e400,"seed":18446744073709551615}}`,
		`{` + spec + `,"spec_hash":"a","request_id":"<>","result":{"timing":null}}`,
	} {
		f.Add([]byte(s))
	}
	f.Add([]byte(exactFrame))
	for _, payload := range knockOffs(exactFrame) {
		f.Add([]byte(payload))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		run, err := DecodeRun(payload)
		want, wantErr := refDecodeRun(payload)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode of %q: got error %v, reference %v", payload, err, wantErr)
		}
		if errors.Is(err, engine.ErrSpecVersion) != errors.Is(wantErr, engine.ErrSpecVersion) {
			t.Fatalf("decode of %q: ErrSpecVersion disagrees: got %v, reference %v", payload, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(run, want) {
			t.Fatalf("decode of %q:\n got       %+v\n reference %+v", payload, run, want)
		}
		buf, err := EncodeRun(run)
		ref, refErr := refEncodeRun(run)
		if !bytes.Equal(buf, ref) || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("encode of %q:\n got       %s, %v\n reference %s, %v", payload, buf, err, ref, refErr)
		}
		if err != nil {
			t.Fatalf("decoded run does not re-encode: %v", err)
		}
		back, err := DecodeRun(buf)
		if err != nil {
			t.Fatalf("re-encoded run does not decode: %v", err)
		}
		again, err := EncodeRun(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, again) {
			t.Fatalf("codec not byte-stable:\n first  %s\n second %s", buf, again)
		}
	})
}

// exactFrame is a frame as EncodeRun writes one of the serve benchmark's
// prepped runs, three round records long: every member in the shape the
// decoders' exact paths read.
const exactFrame = `{"id":"r-1","spec_hash":"7ce36b64","spec":{"engine":"auto","init":{"kind":"uniform","n":5000,"m":16,"seed":2},"kind":"median","rule":{"name":"median"},"seed":2,"timing":"before-round","v":1},` +
	`"result":{"rounds":17,"reason":"consensus","winner":9,"winner_count":5000,"stable_since":17,"seed":2,` +
	`"timing":{"queue_wait_seconds":0.000027207,"run_seconds":0.000068948,"total_seconds":0.000096155,"records_emitted":3,"rounds_per_sec":246562.62690723443}},` +
	`"records":[{"round":0,"n":5000,"support":16,"leader":7,"leader_count":351},{"round":1,"n":5000,"support":16,"leader":9,"leader_count":503},{"round":2,"n":5000,"support":1,"leader":9,"leader_count":5000}],` +
	`"created":"2026-10-20T01:52:06.097172392Z","started":"2026-10-20T01:52:06.097199601Z","finished":"2026-10-20T01:52:06.097268548Z"}`

// knockOffs returns variants of data, a document holding exactFrame's
// spec, result or records, that knock the decoders' exact paths off at
// each member they read, or take them to the edge of what they read:
// keys out of order or escaped, members the exact paths do not read,
// counts with a leading zero, 19 or 20 digits or an exponent, negative
// counts and -0, -0 and exponents in floats, and names no descriptor
// lists. Each replaces one member of data, where data holds it.
func knockOffs(data string) []string {
	var out []string
	for _, c := range [][2]string{
		// Records: keys out of order, escaped, or members beyond the five.
		{`{"round":1,"n":5000,`, `{"n":5000,"round":1,`},
		{`"leader":9,"leader_count":5000}`, `"leader_count":5000,"leader":9}`},
		{`{"round":0,`, `{"\u0072ound":0,`},
		{`"leader_count":351}`, `"leader_count":351,"absorbed":0.25}`},
		{`"leader_count":503}`, `"leader_count":503,"leader_point":[1,-2]}`},
		{`"leader_count":5000}]`, `"leader_count":5000,"absorbed":-0}]`},
		// Record counts: a leading zero, negative, 19 and 20 digits, -0, 1E+2.
		{`"support":16,"leader":7`, `"support":016,"leader":7`},
		{`"leader":7,`, `"leader":-7,`},
		{`"leader_count":351`, `"leader_count":1234567890123456789`},
		{`"n":5000,"support":1,`, `"n":9223372036854775808,"support":1,`},
		{`"round":2,`, `"round":-0,`},
		{`"leader":9,"leader_count":503`, `"leader":1E+2,"leader_count":503`},
		// The result: its members, counts, floats and timing.
		{`"rounds":17,"reason"`, `"reason":"consensus","rounds":17,"x"`},
		{`"reason":"consensus"`, `"re\u0061son":"consensus"`},
		{`"reason":"consensus"`, `"reason":"con\u0073ensus"`},
		{`"winner":9,`, `"winner":-9,`},
		{`"winner":9,`, `"winner":09,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":18446744073709551615,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":18446744073709551616,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":2,"steps":40,"parallel_time":-0,"dissenters":1,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":2,"parallel_time":1E+2,"steps":4,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":2,"winner_point":[1],`},
		{`"queue_wait_seconds":0.000027207`, `"queue_wait_seconds":-0`},
		{`"run_seconds":0.000068948`, `"run_seconds":1E+2`},
		{`"total_seconds":0.000096155`, `"total_seconds":00.5`},
		{`"total_seconds":0.000096155`, `"total_seconds":1.`},
		{`"records_emitted":3,`, `"records_emitted":-3,`},
		{`"records_emitted":3,`, `"records_emitted":3,"records_truncated":2,`},
		{`"records_emitted":3,"rounds_per_sec":246562.62690723443}`, `"rounds_per_sec":1e999,"records_emitted":3}`},
		{`"timing":{"queue_wait_seconds"`, `"t\u0069ming":{"queue_wait_seconds"`},
		// The spec: names no descriptor lists, and an escaped name.
		{`"engine":"auto"`, `"engine":"warp"`},
		{`"init":{"kind":"uniform"`, `"init":{"kind":"blob"`},
		{`"rule":{"name":"median"}`, `"rule":{"name":"me\u0064ian"}`},
		{`"timing":"before-round"`, `"timing":"whenever"`},
		{`"kind":"median"`, `"kind":"nope"`},
		{`"kind":"median"`, `"kind":"m\u0065dian"`},
	} {
		if strings.Contains(data, c[0]) {
			out = append(out, strings.Replace(data, c[0], c[1], 1))
		}
	}
	return out
}

// refRun, refResult and refRecord mirror Run, engine.Result and
// engine.Record with no methods: encoding/json decoding a frame into them
// is how DecodeRun decoded every frame before its one-pass decoder, and
// FuzzDecodeRun's reference.
type refRun struct {
	ID        string      `json:"id,omitempty"`
	SpecHash  string      `json:"spec_hash"`
	RequestID string      `json:"request_id,omitempty"`
	Spec      engine.Spec `json:"spec"`
	Result    refResult   `json:"result"`
	Records   []refRecord `json:"records,omitempty"`
	Truncated int         `json:"truncated,omitempty"`
	Created   time.Time   `json:"created"`
	Started   time.Time   `json:"started"`
	Finished  time.Time   `json:"finished"`
}

type (
	refResult engine.Result
	refRecord engine.Record
)

// checkRefRun fails if refRun no longer mirrors Run member for member.
func checkRefRun(tb testing.TB) {
	run, ref := reflect.TypeFor[Run](), reflect.TypeFor[refRun]()
	if run.NumField() != ref.NumField() {
		tb.Fatalf("refRun has %d fields, Run %d", ref.NumField(), run.NumField())
	}
	for i := range run.NumField() {
		if a, b := run.Field(i), ref.Field(i); a.Name != b.Name || a.Tag != b.Tag {
			tb.Fatalf("refRun field %d is %s %q, Run's is %s %q", i, b.Name, b.Tag, a.Name, a.Tag)
		}
	}
}

func refDecodeRun(payload []byte) (Run, error) {
	var ref refRun
	if err := json.Unmarshal(payload, &ref); err != nil {
		return Run{}, err
	}
	if ref.Spec.V != engine.SpecVersion {
		return Run{}, fmt.Errorf("%w: persisted spec has v%d", engine.ErrSpecVersion, ref.Spec.V)
	}
	r := Run{
		ID: ref.ID, SpecHash: ref.SpecHash, RequestID: ref.RequestID, Spec: ref.Spec,
		Result: engine.Result(ref.Result), Truncated: ref.Truncated,
		Created: ref.Created, Started: ref.Started, Finished: ref.Finished,
	}
	if ref.Records != nil {
		r.Records = make([]engine.Record, len(ref.Records))
		for i, rec := range ref.Records {
			r.Records[i] = engine.Record(rec)
		}
	}
	return r, nil
}

// refEncodeRun is encoding/json on the refRun mirror of r: how EncodeRun
// encoded every run before its append encoder, and its reference.
func refEncodeRun(r Run) ([]byte, error) {
	ref := refRun{
		ID: r.ID, SpecHash: r.SpecHash, RequestID: r.RequestID, Spec: r.Spec,
		Result: refResult(r.Result), Truncated: r.Truncated,
		Created: r.Created, Started: r.Started, Finished: r.Finished,
	}
	if r.Records != nil {
		ref.Records = make([]refRecord, len(r.Records))
		for i, rec := range r.Records {
			ref.Records[i] = refRecord(rec)
		}
	}
	return json.Marshal(ref)
}

// TestEncodeRunMatchesEncodingJSON checks EncodeRun against refEncodeRun
// on runs no decoded payload holds: every optional member at its edges,
// and each error encoding/json returns, in the order it meets them.
func TestEncodeRunMatchesEncodingJSON(t *testing.T) {
	base, err := makeRun(1)
	if err != nil {
		t.Fatal(err)
	}
	far := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	zone := time.Date(2026, 1, 2, 3, 4, 5, 0, time.FixedZone("", 24*3600))
	for _, c := range []struct {
		name  string
		fails bool
		edit  func(r *Run)
	}{
		{"as made", false, func(*Run) {}},
		{"zero", false, func(r *Run) { *r = Run{} }},
		{"html", false, func(r *Run) { r.ID, r.RequestID, r.Result.Reason = "<a&b>", "\u2028\xff", "x\"y" }},
		{"empty records", false, func(r *Run) { r.Records, r.Truncated = []engine.Record{}, -3 }},
		{"leader point", false, func(r *Run) {
			r.Records = []engine.Record{{Round: 1, LeaderPoint: &[]int64{-1, 2}, Absorbed: 1e-7}}
		}},
		{"nan result", true, func(r *Run) { r.Result.ParallelTime = math.NaN(); r.Created = far }},
		{"inf record", true, func(r *Run) { r.Records = []engine.Record{{}, {Absorbed: math.Inf(-1)}}; r.Started = far }},
		{"far created", true, func(r *Run) { r.Created, r.Finished = far, zone }},
		{"zone started", true, func(r *Run) { r.Started = zone }},
		{"far finished", true, func(r *Run) { r.Finished = far.AddDate(-20000, 0, 0) }},
	} {
		r := base
		c.edit(&r)
		got, err := EncodeRun(r)
		want, wantErr := refEncodeRun(r)
		if !bytes.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) || (wantErr != nil) != c.fails {
			t.Errorf("%s:\n got       %s, %v\n reference %s, %v", c.name, got, err, want, wantErr)
		}
	}
}

// seedPayloads returns FuzzDecodeRun's seed frames: makeRun's runs,
// every frame of the golden store files, and one run of each registered
// kind's Example, with its result, records and timing.
func seedPayloads(tb testing.TB) [][]byte {
	var out [][]byte
	for i := 0; i < 3; i++ {
		run, err := makeRun(i)
		if err != nil {
			tb.Fatal(err)
		}
		payload, err := EncodeRun(run)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, payload)
	}
	for _, name := range []string{"store_format_v1.golden", "store_specv0.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		for rest := data[headerSize:]; len(rest) > 0; {
			n := frameHeaderSize + int(binary.LittleEndian.Uint32(rest))
			if len(rest) < n {
				tb.Fatalf("%s: truncated frame", name)
			}
			out = append(out, rest[frameHeaderSize:n])
			rest = rest[n:]
		}
	}
	base := time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC)
	for i, d := range engine.Descriptors() {
		var spec engine.Spec
		raw := append([]byte(`{"kind":"`+d.Kind+`","seed":7,`), d.Example[1:]...)
		if err := json.Unmarshal(raw, &spec); err != nil {
			tb.Fatalf("%s example: %v", d.Kind, err)
		}
		spec, hash, err := spec.Admit(0)
		if err != nil {
			tb.Fatalf("%s example: %v", d.Kind, err)
		}
		var recs []engine.Record
		res, err := engine.Execute(spec, func(rec engine.Record) { recs = append(recs, rec) }, nil)
		if err != nil {
			tb.Fatalf("%s example: %v", d.Kind, err)
		}
		res.Timing = &engine.RunTiming{
			QueueWaitSeconds: 1.5e-5, RunSeconds: 0.000731, TotalSeconds: 0.0012,
			RecordsEmitted: len(recs), RoundsPerSec: float64(res.Rounds) / 0.000731,
		}
		payload, err := EncodeRun(Run{
			ID: fmt.Sprintf("r-%d", i+1), SpecHash: hash, RequestID: "req-" + d.Kind,
			Spec: spec, Result: res, Records: recs, Truncated: i,
			Created: base, Started: base.Add(time.Millisecond), Finished: base.Add(time.Second),
		})
		if err != nil {
			tb.Fatalf("%s example: %v", d.Kind, err)
		}
		out = append(out, payload)
	}
	return out
}

// FuzzFrameRoundTrip: any payload framed and scanned comes back intact.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(`{"spec_hash":"h"}`), []byte(`{"spec_hash":"h2"}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// Frame two arbitrary payloads; scan must either decode them (when
		// they are valid Run JSON with distinct hashes) or drop them, but
		// the CRC must never reject what frame produced.
		framed := append(frame(a), frame(b)...)
		runs, _, _ := scan(framed)
		// Mirror scan's dedupe: a later record for the same hash replaces
		// the earlier one in place.
		var want []Run
		index := map[string]int{}
		for _, payload := range [][]byte{a, b} {
			r, err := DecodeRun(payload)
			if err != nil || r.SpecHash == "" {
				continue
			}
			if i, dup := index[r.SpecHash]; dup {
				want[i] = r
				continue
			}
			index[r.SpecHash] = len(want)
			want = append(want, r)
		}
		if len(runs) != len(want) {
			t.Fatalf("scan recovered %d runs, want %d", len(runs), len(want))
		}
		for i := range runs {
			wantBuf, _ := json.Marshal(want[i])
			gotBuf, _ := json.Marshal(runs[i])
			if !bytes.Equal(wantBuf, gotBuf) {
				t.Fatalf("run %d mismatch: %s vs %s", i, gotBuf, wantBuf)
			}
		}
	})
}

// FuzzOpenWithPolicy: any retention policy over any recovered file must
// keep a newest-first subset of what an unbounded Open would load, never
// resurrect a record the policy dropped, and leave a file that reopens
// parseable with exactly the survivors.
func FuzzOpenWithPolicy(f *testing.F) {
	var valid bytes.Buffer
	for i := 0; i < 4; i++ {
		run, err := makeRun(i)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := EncodeRun(run)
		if err != nil {
			f.Fatal(err)
		}
		valid.Write(frame(payload))
	}
	f.Add(valid.Bytes(), int64(0), int64(0))
	f.Add(valid.Bytes(), int64(400), int64(0))                             // tight byte budget
	f.Add(valid.Bytes(), int64(1), int64(0))                               // budget below any frame
	f.Add(valid.Bytes(), int64(0), int64(3600))                            // everything aged out
	f.Add(valid.Bytes()[:valid.Len()-7], int64(500), int64(86400*365*100)) // truncated tail + roomy policy

	f.Fuzz(func(t *testing.T, framed []byte, maxBytes, maxAgeSecs int64) {
		if maxBytes < 0 {
			maxBytes = -maxBytes
		}
		if maxAgeSecs < 0 {
			maxAgeSecs = -maxAgeSecs
		}
		pol := Policy{MaxBytes: maxBytes, MaxAge: time.Duration(maxAgeSecs) * time.Second}

		// Reference: what an unbounded Open recovers from the same bytes.
		refPath := filepath.Join(t.TempDir(), "ref.store")
		if err := os.WriteFile(refPath, append(Header(), framed...), 0o644); err != nil {
			t.Fatal(err)
		}
		refLog, err := Open(refPath)
		if err != nil {
			t.Fatalf("unbounded Open must recover: %v", err)
		}
		ref := loadAll(t, refLog)
		refLog.Close()

		path := filepath.Join(t.TempDir(), "pol.store")
		if err := os.WriteFile(path, append(Header(), framed...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenWithPolicy(path, pol)
		if err != nil {
			t.Fatalf("a policy must never make recovery fail: %v", err)
		}
		got := loadAll(t, l)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Survivors are a subset of the reference, in reference order —
		// retention never invents or reorders records.
		refIdx := map[string]int{}
		for i, r := range ref {
			refIdx[r.SpecHash] = i
		}
		prev := -1
		for _, r := range got {
			i, ok := refIdx[r.SpecHash]
			if !ok {
				t.Fatalf("policy resurrected a record the reference never loaded: %s", r.SpecHash)
			}
			if i <= prev {
				t.Fatalf("policy reordered survivors: %s", r.SpecHash)
			}
			prev = i
		}
		// With no age bound, a byte budget keeps a suffix: once a record
		// survives, every newer one does too.
		if pol.MaxAge == 0 && len(got) > 0 {
			if want := ref[len(ref)-len(got):]; len(want) == len(got) {
				for i := range got {
					if got[i].SpecHash != want[i].SpecHash {
						t.Fatalf("byte budget did not keep a newest-first suffix: got %d-of-%d with %s at %d",
							len(got), len(ref), got[i].SpecHash, i)
					}
				}
			}
		}

		// The rewritten file is parseable and replays exactly the
		// survivors: dropped records stay dropped.
		l2, err := Open(path)
		if err != nil {
			t.Fatalf("post-retention file does not reopen: %v", err)
		}
		again := loadAll(t, l2)
		l2.Close()
		if len(again) != len(got) {
			t.Fatalf("reopen replays %d records, policy kept %d", len(again), len(got))
		}
		for i := range again {
			if again[i].SpecHash != got[i].SpecHash {
				t.Fatalf("reopen record %d is %s, want %s", i, again[i].SpecHash, got[i].SpecHash)
			}
		}
	})
}
