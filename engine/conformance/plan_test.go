package conformance_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/consensus"
	"repro/engine"
	"repro/rules"
)

// benchSpecs returns the serve benchmark's workload specs at a run seed,
// built as its clients build them: the prep spec of the hit and batch
// workloads, the batch workload's seedless template, and the specs of the
// two miss workloads.
func benchSpecs(seed uint64) []engine.Spec {
	median := func(init consensus.InitSpec, seed uint64) engine.Spec {
		s := engine.Spec{Payload: &consensus.Spec{Init: init, Rule: rules.Ref{Name: "median"}}}
		s.SetSeed(seed)
		return s
	}
	prep := consensus.InitSpec{Kind: "uniform", N: 5000, M: 16}
	return []engine.Spec{
		median(prep, seed),
		median(prep, 0),
		median(consensus.InitSpec{Kind: "twovalue", N: 2000}, seed),
		median(consensus.InitSpec{Kind: "uniform", N: 65536, M: 15}, seed),
	}
}

// fallbacks returns how many spec payloads fn sent through encoding/json
// rather than through their type's compiled plan.
func fallbacks(fn func()) int64 {
	before := engine.CodecFallbacks()
	fn()
	return engine.CodecFallbacks() - before
}

// TestCodecCompiled pins which specs the compiled payload plans encode
// and decode on their own. Every registered kind's payload type compiles:
// its Example, raw, normalized and with every pointer, slice and map
// filled, round-trips without encoding/json, and so do the serve
// benchmark's workload specs, as sent and normalized, and the decodes of
// goldenSpecs and compiledSpecs. Each of fallbackSpecs leaves the plan
// exactly once.
func TestCodecCompiled(t *testing.T) {
	var specs []engine.Spec
	for _, d := range engine.Descriptors() {
		var spec engine.Spec
		if err := json.Unmarshal(append([]byte(`{"kind":"`+d.Kind+`",`), d.Example[1:]...), &spec); err != nil {
			t.Fatalf("%s example: %v", d.Kind, err)
		}
		filled := spec.Normalize()
		fill(reflect.ValueOf(filled.Payload))
		specs = append(specs, spec, spec.Normalize(), filled)
	}
	for _, s := range benchSpecs(7101) {
		specs = append(specs, s, s.Normalize())
	}
	inputs := slicesOf(goldenSpecs, compiledSpecs)
	for _, s := range specs {
		var enc []byte
		var err error
		if n := fallbacks(func() { enc, err = s.MarshalJSON() }); err != nil || n != 0 {
			t.Errorf("encode of %+v: %d fallbacks (%v), want none", s, n, err)
			continue
		}
		var back engine.Spec
		if n := fallbacks(func() { err = back.UnmarshalJSON(enc) }); err != nil || n != 0 {
			t.Errorf("decode of %s: %d fallbacks (%v), want none", enc, n, err)
		} else if !reflect.DeepEqual(back, s) {
			t.Errorf("decode of %s: %+v, want %+v", enc, back, s)
		}
	}
	for _, in := range inputs {
		var s engine.Spec
		var err error
		if n := fallbacks(func() { err = s.UnmarshalJSON(in) }); err != nil || n != 0 {
			t.Errorf("decode of %s: %d fallbacks (%v), want none", in, n, err)
		}
	}
	for _, in := range fallbackSpecs {
		var s engine.Spec
		if n := fallbacks(func() { _ = s.UnmarshalJSON([]byte(in)) }); n != 1 {
			t.Errorf("decode of %s: %d fallbacks, want 1", in, n)
		}
	}
}

// slicesOf converts lists of specs to bytes.
func slicesOf(lists ...[]string) [][]byte {
	var out [][]byte
	for _, l := range lists {
		for _, s := range l {
			out = append(out, []byte(s))
		}
	}
	return out
}

// painter sets every value reachable from a payload through exported
// fields: strings to str, signed and unsigned integers to i and u, bools
// to true and floats to f. If bad is not negative, the float it meets in
// position bad, counting in declaration order from 0, is set to badValue
// instead, and every float after it to after. Pointers are allocated, and
// slices and maps get elems elements, keyed str plus a digit.
type painter struct {
	str      string
	i        int64
	u        uint64
	f        float64
	elems    int
	bad      int
	badValue float64
	after    float64
	floats   int
}

func (p *painter) paint(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(p.str)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(p.i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(p.u)
	case reflect.Float64:
		switch {
		case p.bad < 0 || p.floats < p.bad:
			v.SetFloat(p.f)
		case p.floats == p.bad:
			v.SetFloat(p.badValue)
		default:
			v.SetFloat(p.after)
		}
		p.floats++
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		p.paint(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				p.paint(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), p.elems, p.elems))
		for i := range p.elems {
			p.paint(v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := range p.elems {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			k.SetString(p.str + strconv.Itoa(p.elems-i))
			p.paint(e)
			v.SetMapIndex(k, e)
		}
	}
}

// TestCodecEncodesAsEncodingJSON requires MarshalJSON, through every
// registered kind's compiled plan, to write what the reference codec
// writes, byte for byte and error for error, on payload values no decode
// produces: strings holding HTML characters, U+2028, a control character
// and invalid UTF-8; floats from 1e21 on and below 1e-6, -0 and the
// extremes; the largest uint64 and the smallest int64; nil and empty
// slices and maps beside filled ones; the zero payload, with its zero
// omitzero structs and nil pointers; and NaN and ±Inf at each float in
// turn, alone and followed by other non-finite floats, so that the error
// must be the first in encoding/json's order.
func TestCodecEncodesAsEncodingJSON(t *testing.T) {
	floats := []float64{1e21, 1e-7, 1e20, 1e-6, -1e21, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, -123456.789}
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, kind := range engine.Kinds() {
		e, err := engine.Lookup(kind)
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(e.NewPayload()).Elem()
		check := func(p painter) {
			t.Helper()
			payload := reflect.New(typ)
			if p.str != "zero" {
				p.paint(payload.Elem())
			}
			spec := engine.Spec{Kind: kind, Seed: 3, Payload: payload.Interface().(engine.Payload)}
			var got []byte
			var gotErr error
			if n := fallbacks(func() { got, gotErr = spec.MarshalJSON() }); n != 0 {
				t.Errorf("%s %+v: encoded through encoding/json", kind, p)
			}
			want, wantErr := refSpec(spec).MarshalJSON()
			if !bytes.Equal(got, want) || fmt.Sprintf("%T %v", gotErr, gotErr) != fmt.Sprintf("%T %v", wantErr, wantErr) {
				t.Errorf("%s %+v:\n got       %s (%T %v)\n reference %s (%T %v)", kind, p, got, gotErr, gotErr, want, wantErr, wantErr)
			}
		}
		check(painter{str: "zero"})
		for i, f := range floats {
			check(painter{str: "<a&b>\u2028\u2029\x01\xff\"\\é", i: math.MinInt64, u: math.MaxUint64, f: f, elems: 3, bad: -1})
			check(painter{str: "plain", i: int64(i) - 1, u: uint64(i), f: f, elems: i % 2, bad: -1})
		}
		count := painter{str: "x", elems: 2, bad: -1}
		count.paint(reflect.New(typ).Elem())
		for k, bad := range bads {
			for at := range count.floats {
				check(painter{str: "x", i: 1, u: 1, f: 1.5, elems: 2, bad: at, badValue: bad, after: 1.5})
				check(painter{str: "x", i: 1, u: 1, f: 1.5, elems: 2, bad: at, badValue: bad, after: bads[(k+1)%len(bads)]})
			}
		}
	}
}
