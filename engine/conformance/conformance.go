// Package conformance is the descriptor-driven contract suite for engine
// plugins: for every registered kind it decodes a spec from the kind's
// Descriptor Example, then asserts the invariants every part of the
// service stack leans on — Normalize is idempotent, Validate accepts the
// normalized spec, which reports a positive MaterializedSize for
// admission, and rejects it with any of its floats set to NaN or ±Inf,
// the canonical encoding round-trips byte-identically,
// descriptor defaults really are what omitted fields normalize to,
// Execute of the tiny example observes at least one round, is
// deterministic, and honors mid-run cancellation — and the run's outcome
// survives the persistent store codec (service/store) byte-identically,
// so every kind's results are safe to write through to disk and reload.
//
// The suite discovers kinds through engine.Kinds() at run time, so a new
// family gets contract coverage by being registered (imported) in the
// test binary — see conformance_test.go, which imports every built-in
// family. A registered kind without a Descriptor Example fails the suite:
// the example is what makes the contract checkable.
package conformance

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/engine"
	"repro/obs"
	"repro/service/store"
)

// RunAll runs the conformance suite for every registered kind, one
// subtest per kind.
func RunAll(t *testing.T) {
	kinds := engine.Kinds()
	if len(kinds) == 0 {
		t.Fatal("conformance: no kinds registered; import the family packages")
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) { RunKind(t, kind) })
	}
}

// RunKind runs the conformance suite for one registered kind.
func RunKind(t *testing.T, kind string) {
	e, err := engine.Lookup(kind)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	d := e.Descriptor()
	if len(d.Example) == 0 {
		t.Fatalf("kind %s has no Descriptor Example; the conformance suite needs a tiny valid spec", kind)
	}
	spec := decodeExample(t, kind, d.Example)

	norm := spec.Normalize()
	canonical := canonicalOf(t, norm)

	// Normalize is idempotent: normalizing the normalized spec changes
	// nothing, byte for byte.
	if again := canonicalOf(t, norm.Normalize()); !bytes.Equal(canonical, again) {
		t.Errorf("Normalize not idempotent:\n once  %s\n twice %s", canonical, again)
	}

	// Validate accepts the normalized spec.
	if err := norm.Validate(); err != nil {
		t.Errorf("normalized example fails Validate: %v", err)
	}

	// Admission charges MaterializedSize, so a valid spec must report a
	// positive size: 0 would pass every MaxN bound unchecked.
	if size := norm.MaterializedSize(); size <= 0 {
		t.Errorf("normalized example reports MaterializedSize %d, want > 0", size)
	}

	// The canonical encoding round-trips byte-identically through the
	// codec — decode(canonical) re-encodes to the same canonical bytes.
	var back engine.Spec
	if err := json.Unmarshal(canonical, &back); err != nil {
		t.Fatalf("canonical encoding does not decode: %v", err)
	}
	if round := canonicalOf(t, back); !bytes.Equal(canonical, round) {
		t.Errorf("canonical encoding does not round-trip:\n sent %s\n got  %s", canonical, round)
	}

	checkDefaults(t, d, spec, norm)
	checkNonFinite(t, spec)
	res, recs := checkExecution(t, spec)
	checkInstrumented(t, spec, res, recs)
	checkPersistence(t, norm, res, recs)
}

// decodeExample merges the kind discriminant into the example payload and
// decodes it through the strict registry codec.
func decodeExample(t *testing.T, kind string, example json.RawMessage) engine.Spec {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(example, &fields); err != nil {
		t.Fatalf("descriptor Example is not a JSON object: %v", err)
	}
	fields["kind"], _ = json.Marshal(kind)
	raw, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var spec engine.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("descriptor Example does not decode as a %s spec: %v", kind, err)
	}
	return spec
}

func canonicalOf(t *testing.T, s engine.Spec) []byte {
	t.Helper()
	c, err := s.Canonical()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	return c
}

// checkDefaults asserts that every descriptor parameter carrying a
// Default and omitted by the example normalizes to exactly that default:
// the dotted path must resolve in the canonical JSON to the declared
// value. Paths absent from the canonical form are skipped — a default
// that stays at the zero value is simply dropped by omitempty.
func checkDefaults(t *testing.T, d engine.Descriptor, raw, norm engine.Spec) {
	t.Helper()
	var example, canonical map[string]json.RawMessage
	rawBuf, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawBuf, &example); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(canonicalOf(t, norm), &canonical); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Params {
		if p.Default == "" {
			continue
		}
		if _, set := resolvePath(example, p.Name); set {
			continue // the example sets it explicitly; nothing to check
		}
		got, ok := resolvePath(canonical, p.Name)
		if !ok {
			continue // zero-valued default elided by omitempty
		}
		if !defaultMatches(p, got) {
			t.Errorf("param %s: canonical value %s does not match descriptor default %q", p.Name, got, p.Default)
		}
	}
}

// resolvePath walks a dotted parameter name through nested JSON objects.
func resolvePath(obj map[string]json.RawMessage, path string) (json.RawMessage, bool) {
	for {
		dot := -1
		for i := 0; i < len(path); i++ {
			if path[i] == '.' {
				dot = i
				break
			}
		}
		if dot < 0 {
			v, ok := obj[path]
			return v, ok
		}
		raw, ok := obj[path[:dot]]
		if !ok {
			return nil, false
		}
		var next map[string]json.RawMessage
		if json.Unmarshal(raw, &next) != nil {
			return nil, false
		}
		obj, path = next, path[dot+1:]
	}
}

// defaultMatches compares a canonical JSON value against the descriptor's
// rendered default, per the parameter's declared type.
func defaultMatches(p engine.Param, got json.RawMessage) bool {
	switch p.Type {
	case "string":
		var s string
		return json.Unmarshal(got, &s) == nil && s == p.Default
	case "int", "uint", "float":
		want, err := strconv.ParseFloat(p.Default, 64)
		if err != nil {
			return false
		}
		var v float64
		return json.Unmarshal(got, &v) == nil && v == want
	case "bool":
		var b bool
		return json.Unmarshal(got, &b) == nil && strconv.FormatBool(b) == p.Default
	default:
		// Composite types render their default as raw JSON.
		return string(got) == p.Default
	}
}

// checkNonFinite sets each float reachable from the normalized example in
// turn to NaN, +Inf and -Inf, and requires Validate to reject the spec.
// The canonical encoding cannot carry such a value, so Admit fails on it;
// Validate must fail too, or Execute runs a spec the service refuses.
func checkNonFinite(t *testing.T, spec engine.Spec) {
	t.Helper()
	var paths []string
	eachFloat(reflect.ValueOf(spec.Normalize().Payload), "", func(path string, _ func(float64)) {
		paths = append(paths, path)
	})
	for _, path := range paths {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := spec.Normalize()
			eachFloat(reflect.ValueOf(s.Payload), "", func(p string, set func(float64)) {
				if p == path {
					set(bad)
				}
			})
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepts %s = %v", path, bad)
			}
		}
	}
}

// eachFloat calls fn with the path and a setter of each float64 reachable
// from v through exported struct fields, non-nil pointers and interfaces,
// slice elements and map values.
func eachFloat(v reflect.Value, path string, fn func(path string, set func(float64))) {
	switch v.Kind() {
	case reflect.Float64:
		fn(path, v.SetFloat)
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			eachFloat(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				eachFloat(v.Field(i), path+"."+f.Name, fn)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			eachFloat(v.Index(i), path+"["+strconv.Itoa(i)+"]", fn)
		}
	case reflect.Map:
		if v.Type().Elem().Kind() != reflect.Float64 {
			return
		}
		for _, k := range v.MapKeys() {
			fn(path+"["+k.String()+"]", func(f float64) {
				v.SetMapIndex(k, reflect.ValueOf(f).Convert(v.Type().Elem()))
			})
		}
	}
}

// checkExecution runs the example through Execute: the run must observe
// the initial state plus at least one executed round, repeat identically
// (determinism is what makes results cacheable), and abort with
// ErrCancelled when the cancel poll fires mid-run. It returns the result
// and records for the persistence check.
func checkExecution(t *testing.T, spec engine.Spec) (engine.Result, []engine.Record) {
	t.Helper()
	var recs []engine.Record
	res, err := engine.Execute(spec, func(r engine.Record) { recs = append(recs, r) }, nil)
	if err != nil {
		t.Fatalf("example run failed: %v", err)
	}
	if res.Rounds < 1 {
		t.Errorf("example run finished in %d rounds; examples must execute at least one", res.Rounds)
	}
	if len(recs) < 2 {
		t.Fatalf("example run observed %d records; want the initial state plus ≥1 round", len(recs))
	}
	if recs[0].Round != 0 {
		t.Errorf("first record is round %d, want 0 (the initial state)", recs[0].Round)
	}
	for i, rec := range recs {
		if rec.N <= 0 || rec.Support < 1 {
			t.Errorf("record %d malformed: %+v", i, rec)
		}
	}

	var recs2 []engine.Record
	res2, err := engine.Execute(spec, func(r engine.Record) { recs2 = append(recs2, r) }, nil)
	if err != nil {
		t.Fatalf("repeat run failed: %v", err)
	}
	if !reflect.DeepEqual(res, res2) || !reflect.DeepEqual(recs, recs2) {
		t.Errorf("example run is not deterministic:\n first  %+v (%d records)\n second %+v (%d records)",
			res, len(recs), res2, len(recs2))
	}

	calls := 0
	_, err = engine.Execute(spec, nil, func() bool { calls++; return calls > 1 })
	if err != engine.ErrCancelled {
		t.Errorf("cancellation mid-run returned %v, want engine.ErrCancelled", err)
	}
	return res, recs
}

// checkInstrumented re-runs the example under the exact per-round
// instrumentation the service wraps around every job's observer — an
// obs.RunTracker with a per-kind rounds counter and a live event bus with
// an attached subscriber (the worst case: throttled progress events are
// actually constructed and published). The instrumented run must produce a
// deep-equal result and byte-identical record JSON: observation may meter
// the hot loop but never perturb it. The tracker must also have seen every
// record, so the rounds-executed metrics the service exports are exact.
func checkInstrumented(t *testing.T, spec engine.Spec, res engine.Result, recs []engine.Record) {
	t.Helper()
	reg := obs.NewRegistry()
	rounds := reg.Counter("rounds_total", "rounds", "rounds observed")
	bus := obs.NewBus(16, nil, nil)
	defer bus.Close()
	sub := bus.Subscribe(16, 0)
	defer sub.Close()
	tracker := obs.NewRunTracker(rounds, bus, 2,
		obs.Event{Type: "job.progress", Job: "conformance", Kind: spec.Kind})
	var got []engine.Record
	res2, err := engine.Execute(spec, func(r engine.Record) {
		tracker.Tick(r.Round)
		got = append(got, r)
	}, nil)
	if err != nil {
		t.Fatalf("instrumented run failed: %v", err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("instrumentation changed the result:\n bare         %+v\n instrumented %+v", res, res2)
	}
	want, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, gotJSON) {
		t.Errorf("instrumentation changed the records:\n bare         %s\n instrumented %s", want, gotJSON)
	}
	if tracker.Ticks() != uint64(len(got)) {
		t.Errorf("tracker observed %d ticks, want %d (one per record)", tracker.Ticks(), len(got))
	}
	if rounds.Value() != int64(len(got)) {
		t.Errorf("rounds counter = %d, want %d", rounds.Value(), len(got))
	}
}

// checkPersistence runs the example's outcome through the persistent
// store codec (service/store): the framed Run payload must decode back
// and re-encode byte-identically, and the decoded result and records must
// deep-equal the originals. This is the contract the durable service
// state leans on — a kind whose Result or Record payloads carry
// non-serializable state (NaN floats, unexported or lossy fields) would
// silently corrupt the cache it is reloaded into, and fails here instead.
func checkPersistence(t *testing.T, norm engine.Spec, res engine.Result, recs []engine.Record) {
	t.Helper()
	hash, err := norm.Hash()
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	run := store.Run{ID: "r-1", SpecHash: hash, Spec: norm, Result: res, Records: recs}
	buf, err := store.EncodeRun(run)
	if err != nil {
		t.Fatalf("result does not persist: %v", err)
	}
	back, err := store.DecodeRun(buf)
	if err != nil {
		t.Fatalf("persisted run does not decode: %v", err)
	}
	again, err := store.EncodeRun(back)
	if err != nil {
		t.Fatalf("decoded run does not re-encode: %v", err)
	}
	if !bytes.Equal(buf, again) {
		t.Errorf("store codec round-trip not byte-identical:\n first  %s\n second %s", buf, again)
	}
	if !reflect.DeepEqual(back.Result, res) {
		t.Errorf("result changed through the store codec:\n got  %+v\n want %+v", back.Result, res)
	}
	if !reflect.DeepEqual(back.Records, recs) {
		t.Errorf("records changed through the store codec (%d vs %d)", len(back.Records), len(recs))
	}
	if canonical, err := back.Spec.Canonical(); err != nil {
		t.Errorf("reloaded spec lost its canonical form: %v", err)
	} else if reloadedHash := engine.HashBytes(canonical); reloadedHash != hash {
		t.Errorf("reloaded spec hashes to %s, stored under %s — the cache key would dangle", reloadedHash, hash)
	}
}
