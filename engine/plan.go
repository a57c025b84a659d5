package engine

import (
	"bytes"
	"cmp"
	"encoding"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// plan is the compiled codec of one type, the spec payload codec that
// Spec.MarshalJSON and Spec.UnmarshalJSON run. As for the Record and
// Result codecs, encoding/json stays the reference: a plan writes what
// encoding/json writes, and input in other forms than those, and every
// type the plan refuses, go through encoding/json. A plan is built once,
// never written after, and shared by every goroutine.
type plan struct {
	kind reflect.Kind
	// elem is a pointer's, slice's or map's element.
	elem *plan
	// fields are a struct's fields in declaration order, encoding/json's;
	// sorted holds them in key order, the canonical encoding's.
	fields []field
	sorted []*field
	// names are the strings a string decodes to, not to a copy of its
	// text, when its text spells one: the names the kind's descriptor
	// lists for it (Param.Enum).
	names []string
}

// field is one struct field the plan encodes and decodes.
type field struct {
	*plan
	name                string
	index               int
	omitEmpty, omitZero bool
}

// plans maps each payload type compiled so far to its struct's plan, nil
// if the type is refused.
var plans sync.Map

// payloadPlan returns the plan of the struct the payload type t points to,
// compiling it on first use, or nil if the plan refuses t or the struct
// has a field named like an envelope field (encoding it then fails as
// before, through encoding/json).
func payloadPlan(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	stored, _ := plans.LoadOrStore(t, structPlan(t))
	return stored.(*plan)
}

// compilePayload compiles the plan of payload type t, as payloadPlan
// does, with each string that one of params lists an Enum for decoding to
// the listed names, and publishes it for t. A plan is never written once
// published: a decode still holding an earlier one decodes as before, only
// with every name a copy.
func compilePayload(t reflect.Type, params []Param) {
	sp := structPlan(t)
	for _, prm := range params {
		if s := sp.stringAt(prm.Name); s != nil {
			s.names = append(s.names, prm.Enum...)
		}
	}
	plans.Store(t, sp)
}

// structPlan compiles the plan payloadPlan returns for t.
func structPlan(t reflect.Type) *plan {
	if p := compile(t, map[reflect.Type]bool{}); p != nil && p.kind == reflect.Pointer && p.elem.kind == reflect.Struct &&
		!slices.ContainsFunc(p.elem.fields, func(f field) bool { return slices.Contains(envelopeFields[:], f.name) }) {
		return p.elem
	}
	return nil
}

// stringAt returns the plan of the string at path, a descriptor's dotted
// parameter name, in the struct p plans, following pointers; or nil if
// path names no string there or p, a refused type's plan, is nil.
func (p *plan) stringAt(path string) *plan {
	if p == nil {
		return nil
	}
	for key := range strings.SplitSeq(path, ".") {
		for p.kind == reflect.Pointer {
			p = p.elem
		}
		if p.kind != reflect.Struct {
			return nil
		}
		i := p.fieldIndex([]byte(key))
		if i < 0 {
			return nil
		}
		p = p.fields[i].plan
	}
	for p.kind == reflect.Pointer {
		p = p.elem
	}
	if p.kind != reflect.String {
		return nil
	}
	return p
}

// name returns text as a string: the one of p.names it spells, if any,
// and otherwise a copy of it.
func (p *plan) name(text []byte) string {
	for _, n := range p.names {
		if n == string(text) {
			return n
		}
	}
	return string(text)
}

// codecMethods are the interfaces through which a type takes over its own
// encoding, decoding or omitzero test.
var codecMethods = [...]reflect.Type{
	reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
	reflect.TypeFor[interface{ IsZero() bool }](),
}

// refused reports whether t or *t has one of codecMethods, or t is
// json.Number, which encoding/json writes as a number.
func refused(t reflect.Type) bool {
	for _, m := range codecMethods {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return true
		}
	}
	return t == reflect.TypeFor[json.Number]()
}

// compile builds t's plan, or returns nil if t, or a type reachable from
// it, is one the plan does not cover. It covers structs, strings, bools,
// integers, float64, pointers, slices and string-keyed maps, and refuses
// interfaces, arrays, embedded structs, ",string" fields, float32, []byte,
// json.Number and types with JSON or text (un)marshalers or an IsZero
// method, to which encoding/json gives meanings of their own. open holds
// the types being compiled: a recursive type is refused, so no value of a
// planned type holds a cycle.
func compile(t reflect.Type, open map[reflect.Type]bool) *plan {
	if open[t] || refused(t) {
		return nil
	}
	open[t] = true
	defer delete(open, t)
	p := &plan{kind: t.Kind()}
	switch p.kind {
	case reflect.Bool, reflect.String, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return p
	case reflect.Pointer, reflect.Slice, reflect.Map:
		if p.kind == reflect.Slice && t.Elem().Kind() == reflect.Uint8 ||
			p.kind == reflect.Map && (t.Key().Kind() != reflect.String || refused(t.Key())) {
			return nil
		}
		if p.elem = compile(t.Elem(), open); p.elem == nil {
			return nil
		}
		return p
	case reflect.Struct:
		for i := range t.NumField() {
			sf := t.Field(i)
			tag := sf.Tag.Get("json")
			if sf.Anonymous {
				return nil
			}
			if !sf.IsExported() || tag == "-" {
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			opts = "," + opts + ","
			f := field{name: cmp.Or(name, sf.Name), index: i, plan: compile(sf.Type, open),
				omitEmpty: strings.Contains(opts, ",omitempty,"), omitZero: strings.Contains(opts, ",omitzero,")}
			// A name of other bytes may be escaped, or not taken as it is.
			plainName := strings.Trim(f.name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.") == ""
			// decode marks the fields it has set in a uint64: 64 at most.
			if f.plan == nil || strings.Contains(opts, ",string,") || !plainName || p.fieldIndex([]byte(f.name)) >= 0 || len(p.fields) == 64 {
				return nil
			}
			p.fields = append(p.fields, f)
		}
		for i := range p.fields {
			p.sorted = append(p.sorted, &p.fields[i])
		}
		slices.SortFunc(p.sorted, func(a, b *field) int { return strings.Compare(a.name, b.name) })
		return p
	}
	return nil
}

// fieldIndex returns the index in p.fields of the field named name, or -1.
func (p *plan) fieldIndex(name []byte) int {
	for i := range p.fields {
		if p.fields[i].name == string(name) {
			return i
		}
	}
	return -1
}

// omitted reports whether encoding/json leaves out the field holding v.
func (f *field) omitted(v reflect.Value) bool {
	switch {
	case f.omitZero && v.IsZero():
		return true
	case f.kind == reflect.String || f.kind == reflect.Slice || f.kind == reflect.Map:
		return f.omitEmpty && v.Len() == 0
	}
	return f.omitEmpty && f.kind != reflect.Struct && v.IsZero()
}

// encode appends v as encoding/json writes it. A NaN or infinite float
// sets *err, unless it is already set, and is written as nothing; the
// caller then discards out.
func (p *plan) encode(out []byte, v reflect.Value, err *error) []byte {
	switch p.kind {
	case reflect.Bool:
		return strconv.AppendBool(out, v.Bool())
	case reflect.String:
		return AppendString(out, v.String())
	case reflect.Float64:
		return appendFloat(out, v.Float(), err)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(out, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(out, v.Uint(), 10)
	case reflect.Pointer, reflect.Slice, reflect.Map:
		if v.IsNil() {
			return append(out, "null"...)
		}
	}
	switch p.kind {
	case reflect.Pointer:
		return p.elem.encode(out, v.Elem(), err)
	case reflect.Slice:
		out = append(out, '[')
		for i := range v.Len() {
			out = p.elem.encode(appendComma(out), v.Index(i), err)
		}
		return append(out, ']')
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		out = append(out, '{')
		for _, k := range keys {
			out = p.elem.encode(append(AppendString(appendComma(out), k.String()), ':'), v.MapIndex(k), err)
		}
		return append(out, '}')
	}
	out = append(out, '{')
	for i := range p.fields {
		if f, fv := &p.fields[i], v.Field(p.fields[i].index); !f.omitted(fv) {
			out = f.encode(appendKey(out, f.name), fv, err)
		}
	}
	return append(out, '}')
}

// decode decodes value, one whole JSON value, into v as encoding/json
// decodes it into v's zero value, and reports whether it did. It reads
// only the forms encode writes: objects with exact, unescaped keys in any
// order, each of a struct's at most once (a map's repeated key keeps its
// last value, as in encoding/json); plain strings (see PlainString), a
// listed name decoded to p.names' own string;
// integers with no fraction or exponent, signed only if negative, that fit
// v; JSON numbers for floats; and no null. It reports false, with v partly
// written, for any other value.
func (p *plan) decode(v reflect.Value, value []byte) bool {
	switch p.kind {
	case reflect.Bool:
		v.SetBool(string(value) == "true")
		return string(value) == "true" || string(value) == "false"
	case reflect.String:
		if !PlainString(value) {
			return false
		}
		v.SetString(p.name(value[1 : len(value)-1]))
		return true
	case reflect.Float64:
		f, ok := plainFloat(value)
		v.SetFloat(f)
		return ok
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		digits, neg := bytes.CutPrefix(value, []byte{'-'})
		n, ok := plainUint(digits)
		i := int64(n)
		if neg {
			i = -i
		}
		v.SetInt(i)
		// i keeps the sign written if n fits an int64 and is not -0.
		return ok && (i < 0) == neg && !v.OverflowInt(i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		n, ok := plainUint(value)
		v.SetUint(n)
		return ok && !v.OverflowUint(n)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return p.elem.decode(v.Elem(), value)
	case reflect.Slice:
		last := len(value) - 1
		if value[0] != '[' || value[last] != ']' {
			return false
		}
		v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		for i := skipSpace(value, 1); i < last; {
			end, n := valueEnd(value, i), v.Len()
			v.Grow(1)
			v.SetLen(n + 1)
			if end < 0 || !p.elem.decode(v.Index(n), value[i:end]) {
				return false
			}
			switch i = skipSpace(value, end); {
			case value[i] == ',':
				if i = skipSpace(value, i+1); i == last {
					return false
				}
			case i != last:
				return false
			}
		}
		return true
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		return scanMembers(value, func(raw, k, rest []byte) int {
			end := valueEnd(rest, 0)
			elem.SetZero()
			// An unescaped key is raw without its quotes.
			if end < 0 || len(raw) != len(k)+2 || !plainText(k) || !p.elem.decode(elem, rest[:end]) {
				return -1
			}
			key.SetString(string(k))
			v.SetMapIndex(key, elem)
			return end
		})
	}
	var set uint64
	return scanMembers(value, func(raw, k, rest []byte) int {
		if end := valueEnd(rest, 0); end >= 0 && p.decodeMember(v, member{raw, k, rest[:end]}, &set) {
			return end
		}
		return -1
	})
}

// decodeMember decodes m into the field of struct v its key names, and
// marks that field in set. It reports false, with v partly written, if the
// key is escaped or names no field or one in set, or decode refuses m.
func (p *plan) decodeMember(v reflect.Value, m member, set *uint64) bool {
	i := p.fieldIndex(m.key)
	// An unescaped key is m.raw without its quotes.
	if i < 0 || len(m.raw) != len(m.key)+2 || *set&(1<<i) != 0 {
		return false
	}
	*set |= 1 << i
	return p.fields[i].decode(v.Field(p.fields[i].index), m.value)
}
