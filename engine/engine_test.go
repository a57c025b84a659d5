package engine_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/engine"
)

// fakeSpec is a minimal payload: n rounds of nothing, observable and
// axis-patchable.
type fakeSpec struct {
	N      int     `json:"n,omitempty"`
	Rounds int     `json:"rounds_to_run,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
}

// fakeNormalizes and fakeValidates count fakeSpec's Normalize and
// Validate calls.
var fakeNormalizes, fakeValidates atomic.Int64

func (f *fakeSpec) Normalize() {
	fakeNormalizes.Add(1)
	if f.Rounds == 0 {
		f.Rounds = 2
	}
}

func (f *fakeSpec) Validate() error {
	fakeValidates.Add(1)
	if f.N <= 0 {
		return fmt.Errorf("fake: n must be positive")
	}
	return nil
}

func (f *fakeSpec) MaterializedSize() int64 { return int64(f.N) }

func (f *fakeSpec) Run(ctx engine.RunContext) (engine.Result, error) {
	rounds := f.Rounds
	if ctx.MaxRounds > 0 && ctx.MaxRounds < rounds {
		rounds = ctx.MaxRounds
	}
	for r := 0; r <= rounds; r++ {
		ctx.Observe(engine.Record{Round: r, N: int64(f.N), Support: 1, LeaderCount: int64(f.N)})
	}
	return engine.Result{Rounds: rounds, Reason: "consensus", WinnerCount: int64(f.N)}, nil
}

func (f *fakeSpec) ApplyAxis(param string, v float64) error {
	switch param {
	case "n":
		n, err := engine.IntAxis(param, v)
		if err != nil {
			return err
		}
		f.N = n
	case "rate":
		f.Rate = v
	default:
		return fmt.Errorf("fake: unknown axis %q", param)
	}
	return nil
}

type fakeEngine struct {
	kind string
	dflt bool
}

func (e fakeEngine) NewPayload() engine.Payload { return &fakeSpec{} }

func (e fakeEngine) Descriptor() engine.Descriptor {
	return engine.Descriptor{
		Kind:    e.kind,
		Default: e.dflt,
		Summary: "test-only fake engine",
		Params: []engine.Param{
			{Name: "n", Type: "int", Min: engine.Bound(1), Doc: "population"},
			{Name: "rounds_to_run", Type: "int", Default: "2", Doc: "rounds to simulate"},
			{Name: "rate", Type: "float", Doc: "a float axis"},
		},
		Axes: []string{"n", "rate"},
	}
}

// The fake engines registered once for the whole test package. The engine
// package's own tests run with an otherwise empty registry (no family
// package is imported), so the default-kind mechanics are exercised on
// "fake" itself.
func init() {
	engine.Register(fakeEngine{kind: "fake", dflt: true})
	engine.Register(fakeEngine{kind: "fake2"})
}

func TestRegistryBasics(t *testing.T) {
	if got := engine.Kinds(); !reflect.DeepEqual(got, []string{"fake", "fake2"}) {
		t.Fatalf("kinds %v", got)
	}
	if engine.DefaultKind() != "fake" {
		t.Fatalf("default kind %q", engine.DefaultKind())
	}
	// "" resolves to the default kind.
	e, err := engine.Lookup("")
	if err != nil || e.Descriptor().Kind != "fake" {
		t.Fatalf("Lookup(\"\"): %v %v", e, err)
	}
	if _, err := engine.Lookup("warp"); err == nil {
		t.Fatal("unknown kind must error")
	}
	ds := engine.Descriptors()
	if len(ds) != 2 || ds[0].Kind != "fake" || ds[1].Kind != "fake2" {
		t.Fatalf("descriptors %v", ds)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate kind", func() { engine.Register(fakeEngine{kind: "fake"}) })
	mustPanic("second default", func() { engine.Register(fakeEngine{kind: "fake3", dflt: true}) })
	mustPanic("empty kind", func() { engine.Register(fakeEngine{kind: ""}) })
	mustPanic("axes without AxisApplier", func() { engine.Register(noAxisEngine{}) })
}

// noAxisEngine advertises axes on a payload that cannot apply them.
type noAxisEngine struct{}

type inertSpec struct{}

func (*inertSpec) Normalize()                                   {}
func (*inertSpec) Validate() error                              { return nil }
func (*inertSpec) MaterializedSize() int64                      { return 0 }
func (*inertSpec) Run(engine.RunContext) (engine.Result, error) { return engine.Result{}, nil }
func (noAxisEngine) NewPayload() engine.Payload                 { return &inertSpec{} }
func (noAxisEngine) Descriptor() engine.Descriptor {
	return engine.Descriptor{Kind: "inert", Summary: "x", Axes: []string{"n"}}
}

func TestSpecCodec(t *testing.T) {
	spec := engine.Spec{Kind: "fake", Seed: 9, MaxRounds: 5, Payload: &fakeSpec{N: 10, Rate: 0.5}}
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Envelope and payload share one flat object with sorted keys.
	want := `{"kind":"fake","max_rounds":5,"n":10,"rate":0.5,"seed":9}`
	if string(buf) != want {
		t.Fatalf("marshal: got %s, want %s", buf, want)
	}
	var back engine.Spec
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Fatalf("round trip changed the spec: %+v vs %+v", back, spec)
	}
	// Kindless JSON decodes as the default kind.
	var dflt engine.Spec
	if err := json.Unmarshal([]byte(`{"n":3}`), &dflt); err != nil {
		t.Fatal(err)
	}
	if dflt.Kind != "" || dflt.Payload.(*fakeSpec).N != 3 {
		t.Fatalf("kindless decode: %+v", dflt)
	}
	// Unknown fields for the kind are rejected, naming the kind.
	err = json.Unmarshal([]byte(`{"kind":"fake","warp":1}`), &back)
	if err == nil || !strings.Contains(err.Error(), "fake") {
		t.Fatalf("unknown field: %v", err)
	}
	// Unknown kinds are rejected at decode time.
	if err := json.Unmarshal([]byte(`{"kind":"warp"}`), &back); err == nil {
		t.Fatal("unknown kind must fail to decode")
	}
}

// clashSpec is a payload that writes an envelope field of its own.
type clashSpec struct {
	fakeSpec
	Seed int `json:"seed"`
}

// versionSpec is a payload with a field of its own named like an envelope
// field, which it writes only when the field is set.
type versionSpec struct {
	V int `json:"v,omitempty"`
}

func (*versionSpec) Normalize()                                   {}
func (*versionSpec) Validate() error                              { return nil }
func (*versionSpec) MaterializedSize() int64                      { return 1 }
func (*versionSpec) Run(engine.RunContext) (engine.Result, error) { return engine.Result{}, nil }

// arraySpec is a payload that does not encode to a JSON object.
type arraySpec struct{ fakeSpec }

func (arraySpec) MarshalJSON() ([]byte, error) { return []byte(`[1]`), nil }

// TestSpecMarshalRejectsBadPayloads: the envelope and the payload share
// one object, so a payload that is not an object, or that writes an
// envelope key itself, cannot be encoded.
func TestSpecMarshalRejectsBadPayloads(t *testing.T) {
	for _, c := range []struct {
		payload engine.Payload
		want    string
	}{
		{&clashSpec{Seed: 1}, `redefines the envelope field "seed"`},
		{&versionSpec{V: 2}, `redefines the envelope field "v"`},
		{&arraySpec{}, "not a JSON object"},
	} {
		_, err := json.Marshal(engine.Spec{Kind: "fake", Payload: c.payload})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%T payload: got %v, want an error containing %q", c.payload, err, c.want)
		}
	}
	// An envelope-named field left out by omitempty clashes with nothing.
	if buf, err := json.Marshal(engine.Spec{Kind: "fake", Payload: &versionSpec{}}); err != nil || string(buf) != `{"kind":"fake"}` {
		t.Errorf("unset envelope-named field: %s, %v", buf, err)
	}
}

// TestDeriveSeedAllocs pins DeriveSeed, which the service calls for every
// seedless miss, at no allocation.
func TestDeriveSeedAllocs(t *testing.T) {
	hash := strings.Repeat("5c", 32)
	if got := testing.AllocsPerRun(100, func() { engine.DeriveSeed(hash) }); got != 0 {
		t.Errorf("DeriveSeed: %v allocations, want 0", got)
	}
}

// TestSpecDecodeConcurrent decodes distinct specs from several goroutines
// at once, with failing decodes in between: the decoders the codec reuses
// across calls must never carry one call's bytes or state into another's.
func TestSpecDecodeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				id := g*1000 + i + 1
				want := engine.Spec{Kind: "fake", Seed: uint64(id), Payload: &fakeSpec{N: id, Rate: float64(i)}}
				buf, err := json.Marshal(want)
				if err != nil {
					t.Error(err)
					return
				}
				var got engine.Spec
				if err := json.Unmarshal(buf, &got); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("decode of %s: %+v, %v", buf, got, err)
					return
				}
				bad := fmt.Sprintf(`{"kind":"fake","n":%d,"rate":tru}`, id)
				if err := got.UnmarshalJSON([]byte(bad)); err == nil {
					t.Errorf("decode of %s: no error", bad)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAdmit pins the admission contract: the normalized spec comes back
// with Hash's hash, the size bound is inclusive and 0 means none, and a
// spec Validate rejects is not admitted.
func TestAdmit(t *testing.T) {
	spec := engine.Spec{Kind: "fake", Seed: 3, Payload: &fakeSpec{N: 10}}
	want, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int64{0, 10} {
		got, hash, err := spec.Admit(max)
		if err != nil {
			t.Fatalf("Admit(%d): %v", max, err)
		}
		if hash != want || !reflect.DeepEqual(got, spec.Normalize()) {
			t.Fatalf("Admit(%d) = %+v, %s; want the normalized spec and %s", max, got, hash, want)
		}
	}
	if _, _, err := spec.Admit(9); err == nil || !strings.Contains(err.Error(), "materialized size 10 exceeds the limit 9") {
		t.Fatalf("Admit(9) = %v, want the size error", err)
	}
	invalid := engine.Spec{Kind: "fake", Payload: &fakeSpec{}}
	if _, _, err := invalid.Admit(0); err == nil || err.Error() != invalid.Validate().Error() {
		t.Fatalf("Admit of an invalid spec = %v, want Validate's error", err)
	}
}

// TestRunAdmittedSpec: Admit normalizes and validates the payload once,
// and Run executes what it returned as it is, at the seed it is given,
// calling neither.
func TestRunAdmittedSpec(t *testing.T) {
	normalizes, validates := fakeNormalizes.Load(), fakeValidates.Load()
	spec, hash, err := engine.Spec{Kind: "fake", Payload: &fakeSpec{N: 3}}.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	if n, v := fakeNormalizes.Load()-normalizes, fakeValidates.Load()-validates; n != 1 || v != 1 {
		t.Fatalf("Admit normalized %d and validated %d times, want once each", n, v)
	}
	res, err := spec.Run(engine.DeriveSeed(hash), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || res.Seed != engine.DeriveSeed(hash) {
		t.Fatalf("Run gave %+v, want the normalized 2 rounds at the derived seed", res)
	}
	if n, v := fakeNormalizes.Load()-normalizes, fakeValidates.Load()-validates; n != 1 || v != 1 {
		t.Fatalf("Run normalized %d and validated %d more times, want none", n-1, v-1)
	}
}

func TestSpecNormalizeDoesNotMutateCaller(t *testing.T) {
	p := &fakeSpec{N: 10}
	spec := engine.Spec{Payload: p}
	norm := spec.Normalize()
	if norm.Kind != "fake" {
		t.Fatalf("normalize must make the default kind explicit, got %q", norm.Kind)
	}
	if norm.Payload.(*fakeSpec).Rounds != 2 {
		t.Fatal("normalize must fill payload defaults")
	}
	if p.Rounds != 0 {
		t.Fatal("normalize mutated the caller's payload")
	}
	// Normalized and raw forms hash identically.
	h1, _ := spec.Hash()
	h2, _ := norm.Hash()
	if h1 == "" || h1 != h2 {
		t.Fatalf("hash not canonical: %q vs %q", h1, h2)
	}
}

func TestSpecCloneIsDeep(t *testing.T) {
	spec := engine.Spec{Kind: "fake", Payload: &fakeSpec{N: 10}}
	clone := spec.Clone()
	clone.Payload.(*fakeSpec).N = 99
	if spec.Payload.(*fakeSpec).N != 10 {
		t.Fatal("clone shares the payload")
	}
}

func TestApplyAxis(t *testing.T) {
	spec := engine.Spec{Kind: "fake", Payload: &fakeSpec{N: 1}}
	for param, v := range map[string]float64{"n": 7, "rate": 0.25, "seed": 3, "max_rounds": 9} {
		if err := spec.ApplyAxis(param, v); err != nil {
			t.Fatalf("ApplyAxis(%s): %v", param, err)
		}
	}
	p := spec.Payload.(*fakeSpec)
	if p.N != 7 || p.Rate != 0.25 || spec.Seed != 3 || spec.MaxRounds != 9 {
		t.Fatalf("axes not applied: %+v %+v", spec, p)
	}
	if err := spec.ApplyAxis("warp", 1); err == nil {
		t.Fatal("non-descriptor axis must be rejected")
	}
	if err := spec.ApplyAxis("n", 1.5); err == nil {
		t.Fatal("non-integral int axis must be rejected")
	}
	if !spec.AxisOK("n") || !spec.AxisOK("seed") || spec.AxisOK("warp") {
		t.Fatal("AxisOK disagrees with the descriptor")
	}
}

func TestExecuteObservesAndCancels(t *testing.T) {
	spec := engine.Spec{Kind: "fake", Seed: 1, Payload: &fakeSpec{N: 4, Rounds: 10}}
	var recs []engine.Record
	res, err := engine.Execute(spec, func(r engine.Record) { recs = append(recs, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 10 || res.Seed != 1 || len(recs) != 11 {
		t.Fatalf("result %+v, %d records", res, len(recs))
	}
	// Seedless specs get the hash-derived seed stamped into the result.
	seedless := engine.Spec{Kind: "fake", Payload: &fakeSpec{N: 4}}
	res, err = engine.Execute(seedless, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := seedless.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if want := engine.DeriveSeed(hash); res.Seed != want || res.Seed == 0 {
		t.Fatalf("derived seed %d, want %d", res.Seed, engine.DeriveSeed(hash))
	}
	// Cancellation unwinds through the observer after a bounded number of
	// rounds.
	calls := 0
	_, err = engine.Execute(spec, nil, func() bool { calls++; return calls > 3 })
	if err != engine.ErrCancelled {
		t.Fatalf("cancelled run returned %v", err)
	}
}

// TestRecordUnmarshalJSON: Record's decoder, called directly as the
// client calls it on each streamed line, agrees with encoding/json
// decoding into a Record without it: on the lines the encoder writes and
// on lines it never writes, well-formed or not.
func TestRecordUnmarshalJSON(t *testing.T) {
	type plain engine.Record
	for _, line := range []string{
		`{"round":3,"n":5000,"support":16,"leader":7,"leader_count":812}`,
		`{"round":1,"n":24,"support":2,"leader":0,"leader_count":12,"absorbed":0.25}`,
		`{"round":0,"n":64,"support":4,"leader":0,"leader_count":20,"leader_point":[1,2]}`,
		` { "round" : 2 , "N" : 5 , "leader" : -3 } `,
		`{"round":1,"round":2,"absorbed":1e-7,"n":null}`,
		`{"round":4}`, `{}`, `null`,
		`{"round":1.5}`, `{"round":"1"}`, `{"n":9223372036854775808}`, `{"absorbed":1e400}`,
		`{"round":01}`, `{"round":1,}`, `{"round":1} x`, `[1]`, `{"round":1`, `{"absorbed":-}`, `{"absorbed":.5}`,
	} {
		var got engine.Record
		var want plain
		gotErr, wantErr := got.UnmarshalJSON([]byte(line)), json.Unmarshal([]byte(line), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: got error %v, encoding/json %v", line, gotErr, wantErr)
		} else if gotErr == nil && !reflect.DeepEqual(got, engine.Record(want)) {
			t.Errorf("%s: got %+v, encoding/json %+v", line, got, want)
		}
	}
}
