package conformance_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"reflect"
	"testing"

	"repro/engine"
)

// TestCloneSharesNothing requires Clone to share nothing with the spec
// it copies, for every registered kind. It fills every nil pointer, slice
// and map reachable from the kind's normalized Example, clones it, changes
// every value reachable from the clone — each scalar and map entry and
// slice element, plus a key added to each map and an element appended to
// each slice — and requires the original's encoding not to move. Clone
// copies exported fields only, so every field reachable from the
// payload's type must be exported.
func TestCloneSharesNothing(t *testing.T) {
	for _, d := range engine.Descriptors() {
		t.Run(d.Kind, func(t *testing.T) {
			var spec engine.Spec
			if err := json.Unmarshal(append([]byte(`{"kind":"`+d.Kind+`",`), d.Example[1:]...), &spec); err != nil {
				t.Fatalf("example: %v", err)
			}
			orig := spec.Normalize()
			if field := unexportedField(reflect.TypeOf(orig.Payload), map[reflect.Type]bool{}); field != "" {
				t.Errorf("payload field %s is unexported: Clone cannot copy it", field)
			}
			fill(reflect.ValueOf(orig.Payload))
			before, err := orig.MarshalJSON()
			if err != nil {
				t.Fatalf("filled example does not encode: %v", err)
			}
			clone := orig.Clone()
			mutate(reflect.ValueOf(clone.Payload))
			if after, err := orig.MarshalJSON(); err != nil || !bytes.Equal(before, after) {
				t.Errorf("changing a Clone changed the original:\n before %s\n after  %s (%v)", before, after, err)
			}
			if changed, err := clone.MarshalJSON(); err == nil && bytes.Equal(before, changed) {
				t.Errorf("changing every value of the clone left its encoding %s", changed)
			}
		})
	}
}

// unexportedField names the first unexported struct field reachable from
// type t, or returns "" if there is none.
func unexportedField(t reflect.Type, seen map[reflect.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return unexportedField(t.Elem(), seen)
	case reflect.Map:
		return cmp.Or(unexportedField(t.Key(), seen), unexportedField(t.Elem(), seen))
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() {
				return t.String() + "." + f.Name
			}
			if name := unexportedField(f.Type, seen); name != "" {
				return name
			}
		}
	}
	return ""
}

// fill gives every nil pointer, slice and map reachable from v through
// exported fields a value: a zero element, entry or pointee, filled in
// turn.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Len() == 0 {
			v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
		}
		for i := range v.Len() {
			fill(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		if v.Len() == 0 {
			v.SetMapIndex(reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem())
		}
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			fill(e)
			v.SetMapIndex(k, e)
		}
	}
}

// mutate changes every value reachable from v through exported fields:
// each bool, number and string, each slice element and map entry, and
// appends a zero element to each slice and adds a new key to each map.
func mutate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Pointer:
		if !v.IsNil() {
			mutate(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			e := reflect.New(v.Elem().Type()).Elem()
			e.Set(v.Elem())
			mutate(e)
			v.Set(e)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				mutate(v.Field(i))
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			mutate(v.Index(i))
		}
	case reflect.Slice:
		for i := range v.Len() {
			mutate(v.Index(i))
		}
		v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
	case reflect.Map:
		if v.IsNil() {
			return
		}
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			mutate(e)
			v.SetMapIndex(k, e)
		}
		key := reflect.New(v.Type().Key()).Elem()
		for v.MapIndex(key).IsValid() {
			mutate(key)
		}
		v.SetMapIndex(key, reflect.New(v.Type().Elem()).Elem())
	}
}
