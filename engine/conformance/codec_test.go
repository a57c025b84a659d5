package conformance_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/engine"
)

// goldenSpecs are the canonical encodings pinned by service's
// TestGoldenHashes.
var goldenSpecs = []string{
	`{"engine":"auto","init":{"kind":"twovalue","n":1000,"n_low":500,"low":1,"high":2},"kind":"median","rule":{"name":"median"},"seed":1,"timing":"before-round","v":1}`,
	`{"init":{"kind":"twovalue","n":1000,"n_low":500,"low":1,"high":2},"kind":"gossip","rule":{"name":"median"},"seed":1,"selector":"drop-value:2","v":1}`,
	`{"engine":"auto","init":{"kind":"random","n":1000,"d":2,"m":8,"seed":1},"kind":"multidim","seed":1,"v":1}`,
	`{"engine":"count","init":{"kind":"random","n":100000,"d":2,"m":4,"seed":1},"kind":"multidim","seed":1,"v":1}`,
	`{"adversary":{"name":"noise"},"engine":"auto","init":{"kind":"random","n":1000000000,"d":2,"m":2,"seed":3},"kind":"multidim","seed":1,"v":1}`,
	`{"crashes":10,"init":{"kind":"twovalue","n":1000,"n_low":500,"low":1,"high":2},"kind":"robust","loss_prob":0.1,"mode":"responsive","seed":1,"v":1}`,
	`{"init":"point","kind":"exact","n":64,"seed":1,"start":16,"v":1}`,
}

// fallbackSpecs are specs whose payloads the compiled plans leave to
// encoding/json, one for each form outside the plans' grammar, so that
// encoding/json makes the accept or reject decision and the decoded spec
// is its own.
var fallbackSpecs = []string{
	// Escaped keys, at the top and nested, and case variants of payload
	// keys, which encoding/json matches without regard to case.
	`{"init":{"kind":"twovalue","n":50},"rul\u0065":{"name":"median"}}`,
	`{"init":{"k\u0069nd":"twovalue","n":50}}`,
	`{"Init":{"kind":"twovalue","n":50}}`,
	`{"init":{"Kind":"twovalue","N":50}}`,
	`{"init":{"kind":"twovalue","n":50},"rule":{"NAME":"median"}}`,
	// A repeated struct key: encoding/json decodes both, merging a
	// repeated object.
	`{"init":{"kind":"twovalue","n":50,"n":60}}`,
	`{"kind":"median","adversary":{"name":"hider","budget":{"kind":"const"},"budget":{"factor":2}},"init":{"kind":"twovalue","n":50}}`,
	// null members.
	`{"init":null}`,
	`{"adversary":null,"init":{"kind":"twovalue","n":50}}`,
	`{"init":{"kind":"twovalue","n":null}}`,
	`{"kind":"multidim","adversary":{"name":"noise","params":null},"init":{"kind":"random","n":100,"d":2,"m":4}}`,
	// Strings that are not plain, and numbers in forms the encoder never
	// writes for the field.
	`{"init":{"kind":"two\u0076alue","n":50}}`,
	`{"init":{"kind":"twovalue","n":50,"low":-0,"high":5}}`,
	`{"init":{"kind":"blocks","counts":[-9223372036854775809]}}`,
	`{"init":{"kind":"uniform","n":50,"m":3,"seed":-1}}`,
	`{"init":{"kind":"twovalue","n":5e1}}`,
	`{"init":{"kind":"twovalue","n":50.0}}`,
	`{"kind":"robust","init":{"kind":"twovalue","n":50},"loss_prob":"0.1"}`,
	`{"kind":"gossip","init":{"kind":"twovalue","n":50},"cap_factor":1e400}`,
}

// compiledSpecs are valid specs the compiled plans decode on their own:
// canonical encodings, and the forms the plans accept beyond them.
var compiledSpecs = []string{
	// Payload keys out of order, with whitespace.
	` { "rule" : { "name" : "median" } , "init" : { "n" : 50 , "kind" : "twovalue" } } `,
	// Negative integers, down to the smallest int64, negative and
	// exponent floats, and params maps out of key order.
	`{"init":{"kind":"twovalue","n":50,"low":-3,"high":5}}`,
	`{"init":{"kind":"blocks","counts":[-1,2,-9223372036854775808,9223372036854775807]}}`,
	`{"kind":"gossip","init":{"kind":"twovalue","n":50},"cap_factor":-2.5E+1}`,
	`{"kind":"robust","init":{"kind":"twovalue","n":50},"loss_prob":1e-1}`,
	`{"rule":{"name":"median","params":{"z":1,"a":-2.5,"m":3e2}},"init":{"kind":"twovalue","n":50}}`,
	`{"kind":"multidim","adversary":{"name":"noise","params":{"p":0.5,"b":1}},"init":{"kind":"random","n":100,"d":2,"m":4}}`,
	`{"kind":"median","adversary":{"name":"hider","budget":{"factor":2,"kind":"const"},"params":{}},"init":{"kind":"blocks","counts":[]}}`,
	`{"seed":18446744073709551615,"init":{"kind":"uniform","n":50,"m":3,"seed":18446744073709551615}}`,
	// A repeated map key keeps its last value, as in encoding/json.
	`{"kind":"multidim","adversary":{"name":"noise","params":{"p":1,"p":2}},"init":{"kind":"random","n":100,"d":2,"m":4}}`,
}

// FuzzSpecCodec checks engine.Spec's codec against refSpec, the codec it
// replaced, over every registered kind. On any input both decoders fail or
// both succeed, and agree on whether the failure is ErrSpecVersion; both
// decoded specs have the same reference encoding, raw and canonical; and
// the two encoders write byte-identical output for the decoded spec and
// its normalized form. The byte-identical encode is what keeps canonical
// hashes, derived seeds and stored frames from moving. Its seeds reach
// both the compiled plans and every way out of them.
func FuzzSpecCodec(f *testing.F) {
	for _, d := range engine.Descriptors() {
		f.Add([]byte(d.Example))
		f.Add(append([]byte(`{"kind":"`+d.Kind+`",`), d.Example[1:]...))
	}
	for _, g := range goldenSpecs {
		f.Add([]byte(g))
		var indented bytes.Buffer
		if err := json.Indent(&indented, []byte(g), "", "  "); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes())
	}
	for _, s := range slices.Concat(fallbackSpecs, compiledSpecs) {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		// A repeated key keeps its last value, never a merge of both.
		`{"init":{"kind":"twovalue","n":50,"low":3},"init":{"kind":"uniform","n":60,"m":4}}`,
		`{"seed":1,"seed":2,"init":{"kind":"twovalue","n":50},"seed":null}`,
		// A case variant of an envelope key stays with the payload; an
		// escaped spelling of one is the key itself.
		`{"Seed":5,"init":{"kind":"twovalue","n":50}}`,
		`{"\u0073eed":5,"init":{"kind":"twovalue","n":50}}`,
		`{"V":2,"init":{"kind":"twovalue","n":50}}`,
		// A foreign version, an unknown kind and an unknown field.
		`{"v":2,"init":{"kind":"twovalue","n":50}}`,
		`{"kind":"warp","n":5}`,
		`{"init":{"kind":"twovalue","n":50},"warp":1}`,
		`{}`, `null`, `[]`, `"x"`, `5`,
		` {"kind" : "exact" , "n" : 24 } `,
		// Input only a direct UnmarshalJSON call sees, and envelope
		// values in forms the encoder never writes.
		`{"v":2,"init":tru}`,
		`{"init":[1},"init":{}}`,
		`{"kind":"exact","n":24} x`,
		`{"seed":01}`, `{"seed":1e2}`, `{"seed":-0}`, `{"max_rounds":-0}`,
		`{"seed":18446744073709551616}`, `{"seed":18446744073709551615,"max_rounds":9223372036854775808}`,
		`{"kind":"ex\u0061ct","n":24}`,
		`{"kind":null,"seed":null,"v":null}`,
		"{\"\u017feed\":5}", "{\"\xff\":1,\"\xfe\":2}", "{\"a\x01\":1}", "{\"v\":2,\"a\x01\":1}",
		`{"init":{"kind":"twovalue","n":50},"INIT":{"kind":"uniform","n":60,"m":3}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got engine.Spec
		var want refSpec
		checkDecode(t, data, json.Unmarshal(data, &got), json.Unmarshal(data, &want), got, want)
		// A direct call sees input encoding/json has not checked first.
		var gotDirect engine.Spec
		var wantDirect refSpec
		checkDecode(t, data, gotDirect.UnmarshalJSON(data), wantDirect.UnmarshalJSON(data), gotDirect, wantDirect)
	})
}

func checkDecode(t *testing.T, data []byte, gotErr, wantErr error, got engine.Spec, want refSpec) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decode of %q: got error %v, reference %v", data, gotErr, wantErr)
	}
	if errors.Is(gotErr, engine.ErrSpecVersion) != errors.Is(wantErr, engine.ErrSpecVersion) {
		t.Fatalf("decode of %q: ErrSpecVersion disagrees: got %v, reference %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for _, form := range []struct {
		name      string
		got, want engine.Spec
	}{
		{"decoded", got, engine.Spec(want)},
		{"normalized", got.Normalize(), engine.Spec(want).Normalize()},
	} {
		g, gerr := json.Marshal(refSpec(form.got))
		w, werr := json.Marshal(refSpec(form.want))
		if gerr != nil || werr != nil || !bytes.Equal(g, w) {
			t.Fatalf("decode of %q: %s specs differ:\n got       %s (%v)\n reference %s (%v)", data, form.name, g, gerr, w, werr)
		}
		// The two encoders agree byte for byte on every decoded spec.
		enc, err := json.Marshal(form.got)
		if err != nil || !bytes.Equal(enc, g) {
			t.Fatalf("encode of %s %q:\n got       %s (%v)\n reference %s", form.name, data, enc, err, g)
		}
		// MarshalJSON called directly, as Admit and Canonical call it,
		// writes exactly what json.Marshal does: the canonical bytes need
		// no compaction pass.
		if direct, err := form.got.MarshalJSON(); err != nil || !bytes.Equal(direct, enc) {
			t.Fatalf("MarshalJSON of %s %q:\n direct       %s (%v)\n json.Marshal %s", form.name, data, direct, err, enc)
		}
	}
}

// TestSpecTypedNilPayload pins that a typed nil payload behaves exactly
// like a nil one, the kind's zero payload, in every Spec method and for
// every registered kind: no method panics on it, and each returns what it
// returns for a spec with no payload.
func TestSpecTypedNilPayload(t *testing.T) {
	encode := func(s engine.Spec) string {
		buf, err := json.Marshal(s)
		return fmt.Sprintf("%s %v", buf, err)
	}
	methods := []struct {
		name string
		call func(engine.Spec) string
	}{
		{"MarshalJSON", encode},
		{"Normalize", func(s engine.Spec) string { return encode(s.Normalize()) }},
		{"Validate", func(s engine.Spec) string { return fmt.Sprint(s.Validate()) }},
		{"MaterializedSize", func(s engine.Spec) string { return fmt.Sprint(s.MaterializedSize()) }},
		{"Hash", func(s engine.Spec) string {
			h, err := s.Hash()
			return fmt.Sprintf("%s %v", h, err)
		}},
		{"Clone", func(s engine.Spec) string { return encode(s.Clone()) }},
		{"SetSeed", func(s engine.Spec) string {
			s.SetSeed(7)
			return encode(s)
		}},
	}
	for _, kind := range engine.Kinds() {
		e, err := engine.Lookup(kind)
		if err != nil {
			t.Fatal(err)
		}
		typedNil := reflect.Zero(reflect.TypeOf(e.NewPayload())).Interface().(engine.Payload)
		for _, m := range methods {
			t.Run(kind+"/"+m.name, func(t *testing.T) {
				want := m.call(engine.Spec{Kind: kind, Seed: 3, MaxRounds: 9})
				got := m.call(engine.Spec{Kind: kind, Seed: 3, MaxRounds: 9, Payload: typedNil})
				if got != want {
					t.Fatalf("typed nil payload: got %s, nil payload gives %s", got, want)
				}
			})
		}
	}
}
