package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// SpecVersion is the version of the canonical spec encoding, stamped into
// every normalized spec as the envelope field "v". The canonical encoding
// is what the cache key, the derived seed and the persistent store are
// defined over, and the store outlives any one binary — so a change to the
// encoding that is not purely additive must bump SpecVersion. Decoding
// rejects specs carrying a different version (ErrSpecVersion), which is
// what lets the persistent store preserve frames written under another
// codec opaquely instead of serving stale entries under drifted keys.
//
// Version history:
//
//	1: the first explicitly versioned encoding. Specs encoded before
//	   versioning carry no "v" field and decode with V == 0; persistence
//	   layers treat them as a foreign version.
const SpecVersion = 1

// ErrSpecVersion marks a spec whose "v" field names a canonical-encoding
// version this binary does not speak. Persistence layers match it with
// errors.Is to preserve such records opaquely rather than dropping them.
var ErrSpecVersion = errors.New("engine: unsupported spec version")

// Spec is the serializable description of one simulation run: the envelope
// fields every family shares plus the family's typed payload, selected by
// Kind and resolved through the registry.
//
// On the wire the payload is flattened into the envelope object —
//
//	{"kind":"median","seed":5,"init":{...},"rule":{...}}
//	{"kind":"gossip","init":{...},"cap_factor":2,"selector":"drop-value:1"}
//
// — and decoding is strict: an unknown field (for the spec's kind) is an
// error, never silently dropped. Decode, Normalize, Validate,
// MaterializedSize, the canonical hash and Run all dispatch through the
// registry; no code in this package knows any family by name.
type Spec struct {
	// Kind selects the simulation family ("" = the registry's default
	// kind, median).
	Kind string `json:"-"`
	// Seed makes the run reproducible. 0 means "derive from the spec
	// hash" (see DeriveSeed), so seedless specs are still deterministic.
	Seed uint64 `json:"-"`
	// MaxRounds caps the run (0 = engine default). Families with another
	// natural unit document the mapping (robust counts parallel rounds:
	// the step cap is MaxRounds·n).
	MaxRounds int `json:"-"`
	// Payload is the family's typed spec body (nil behaves like the
	// family's zero payload).
	Payload Payload `json:"-"`
	// V is the canonical-encoding version ("v" on the wire). 0 means the
	// spec has not been normalized yet (or was decoded from a pre-version
	// encoding); Normalize stamps SpecVersion. Decoding rejects any other
	// value with ErrSpecVersion.
	V int `json:"-"`
}

// envelopeFields names the Spec fields that live beside the flattened
// payload, in sorted key order: the order MarshalJSON places them in.
var envelopeFields = [...]string{"kind", "max_rounds", "seed", "v"}

// MarshalJSON flattens the payload's fields into the envelope object, keys
// in sorted order, so the output — and therefore the canonical encoding
// Hash is defined over — is deterministic. A payload whose type has a
// plan (see plan.go) is written through it; any other is encoded once, and
// its top-level members are then sorted and merged with the envelope
// fields that are set. The bytes are those of one JSON object holding
// every member, which is how the canonical encoding is defined.
func (s Spec) MarshalJSON() ([]byte, error) {
	var payload []byte
	if !nilPayload(s.Payload) {
		if p := payloadPlan(reflect.TypeOf(s.Payload)); p != nil {
			return s.marshalPlanned(p)
		}
		fallbacks.Add(1)
		buf, err := json.Marshal(s.Payload)
		if err != nil {
			return nil, err
		}
		payload = buf
	}
	var stack [16]member
	members := stack[:0]
	if payload != nil {
		var ok bool
		if members, ok = objectMembers(members, payload); !ok {
			return nil, fmt.Errorf("engine: %s payload is not a JSON object", s.kind())
		}
	}
	for _, m := range members {
		if field, exact := envelopeField(m.key); exact {
			return nil, fmt.Errorf("engine: %s payload redefines the envelope field %q", s.kind(), envelopeFields[field])
		}
	}
	members, _ = sortMembers(members)
	out := make([]byte, 0, len(payload)+64)
	out = append(out, '{')
	field := 0
	for _, m := range members {
		for ; field < len(envelopeFields) && envelopeFields[field] < string(m.key); field++ {
			out = s.appendEnvelopeField(out, field)
		}
		out = appendMember(out, m)
	}
	for ; field < len(envelopeFields); field++ {
		out = s.appendEnvelopeField(out, field)
	}
	return append(out, '}'), nil
}

// marshalPlanned is MarshalJSON writing the payload's members through p,
// its type's plan, in key order. Its error is encoding/json's: that of the
// first NaN or infinite float in declaration order.
func (s Spec) marshalPlanned(p *plan) ([]byte, error) {
	v := reflect.ValueOf(s.Payload).Elem()
	out := append(make([]byte, 0, 256), '{')
	field, errAt := 0, 0
	var err error
	for _, f := range p.sorted {
		fv := v.Field(f.index)
		if f.omitted(fv) {
			continue
		}
		for ; field < len(envelopeFields) && envelopeFields[field] < f.name; field++ {
			out = s.appendEnvelopeField(out, field)
		}
		var ferr error
		if out = f.encode(appendKey(out, f.name), fv, &ferr); ferr != nil && (err == nil || f.index < errAt) {
			err, errAt = ferr, f.index
		}
	}
	if err != nil {
		return nil, err
	}
	for ; field < len(envelopeFields); field++ {
		out = s.appendEnvelopeField(out, field)
	}
	return append(out, '}'), nil
}

// appendEnvelopeField appends envelope field i as a member of the object
// being written in out, unless it is unset.
func (s Spec) appendEnvelopeField(out []byte, i int) []byte {
	switch name := envelopeFields[i]; {
	case name == "kind" && s.Kind != "":
		return AppendString(appendKey(out, name), s.Kind)
	case name == "max_rounds" && s.MaxRounds != 0:
		return strconv.AppendInt(appendKey(out, name), int64(s.MaxRounds), 10)
	case name == "seed" && s.Seed != 0:
		return strconv.AppendUint(appendKey(out, name), s.Seed, 10)
	case name == "v" && s.V != 0:
		return strconv.AppendInt(appendKey(out, name), int64(s.V), 10)
	}
	return out
}

// UnmarshalJSON splits the envelope fields off and strictly decodes the
// rest into the kind's payload type, resolved through the registry. An
// unknown kind, or a field the kind's payload does not define, is an error
// — a misspelled or foreign-family field is never silently dropped.
//
// One scan lifts the envelope members out of the object; the payload
// members left over are sorted by key, a repeated key keeping only its
// last value. They are decoded through the payload type's compiled plan
// if each is in a form its encoder writes (see plan.decode), and otherwise
// into another fresh payload in one strict encoding/json pass. Envelope
// keys match exactly once unescaped ("\u0073eed" is "seed"). A case
// variant such as "Seed" stays with the payload, which rejects it, though
// like encoding/json's field matching it also sets the envelope field
// first: {"V":2} is a foreign version, not an unknown field.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var stack [16]member
	members := stack[:0]
	if !isNull(data) {
		var ok bool
		if members, ok = objectMembers(members, data); !ok {
			return invalidSpec(data)
		}
	}
	var env Spec
	var envErr error
	// kind is the text of a plain kind, written last: it is looked up
	// below, not copied, and env.Kind set to the registry's own string.
	var kind []byte
	payload := members[:0]
	for _, m := range members {
		field, exact := envelopeField(m.key)
		switch {
		case field == 0 && PlainString(m.value): // "kind"
			env.Kind, kind = "", m.value[1:len(m.value)-1]
		case field >= 0:
			if err := env.setEnvelopeField(field, m.value); err != nil && envErr == nil {
				envErr = fmt.Errorf("engine: bad spec field %s: %w", envelopeFields[field], err)
			}
			if env.Kind != "" { // a kind not plain, written last
				kind = nil
			}
		}
		if !exact {
			payload = append(payload, m)
		}
	}
	payload, valid := sortMembers(payload)
	if !valid {
		return invalidSpec(data)
	}
	if envErr != nil {
		return envErr
	}
	// An absent "v" (V == 0, the pre-version encoding) is accepted for
	// compatibility with existing clients; any explicit version other than
	// ours is a spec this binary must not reinterpret under its own codec.
	// Malformed JSON is malformed whatever its version says.
	if env.V != 0 && env.V != SpecVersion {
		if !json.Valid(objectOf(payload, len(data))) {
			return invalidSpec(data)
		}
		return fmt.Errorf("%w: spec has v%d, this binary speaks v%d", ErrSpecVersion, env.V, SpecVersion)
	}
	var e entry
	var err error
	if len(kind) > 0 {
		e, err = lookup(kind)
		env.Kind = e.kind
	} else {
		e, err = lookup(env.Kind)
	}
	if err != nil {
		return err
	}
	p, ok := decodePlanned(e, payload)
	if !ok {
		fallbacks.Add(1)
		p = e.engine.NewPayload()
		if err := strictDecode(objectOf(payload, len(data)), p); err != nil {
			return fmt.Errorf("engine: bad %s spec: %w", kindOrDefault(env.Kind), err)
		}
	}
	env.Payload = p
	*s = env
	return nil
}

// decodePlanned decodes members, each key once, into a fresh payload of
// e's kind through its type's plan, or reports false (see plan.decode).
func decodePlanned(e entry, members []member) (Payload, bool) {
	p, payload, set := payloadPlan(e.payload), e.engine.NewPayload(), uint64(0)
	if p == nil {
		return nil, false
	}
	v := reflect.ValueOf(payload).Elem()
	for _, m := range members {
		if !p.decodeMember(v, m, &set) {
			return nil, false
		}
	}
	return payload, true
}

// objectOf writes members as one JSON object, in a buffer of capacity
// size.
func objectOf(members []member, size int) []byte {
	out := append(make([]byte, 0, size), '{')
	for _, m := range members {
		out = appendMember(out, m)
	}
	return append(out, '}')
}

// setEnvelopeField decodes value into envelope field i the way
// encoding/json decodes a struct field: null leaves it unchanged, and a
// value of the wrong type is an error. The forms the encoder writes are
// parsed directly; any other goes through encoding/json itself.
func (s *Spec) setEnvelopeField(i int, value []byte) error {
	switch envelopeFields[i] {
	case "kind":
		return DecodeString(value, &s.Kind)
	case "max_rounds":
		return DecodeInt(value, &s.MaxRounds)
	case "seed":
		return DecodeInt(value, &s.Seed)
	default: // "v"
		return DecodeInt(value, &s.V)
	}
}

// invalidSpec explains why data does not decode as a spec: its JSON
// syntax error, or that it is not an object.
func invalidSpec(data []byte) error {
	var raw json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	return fmt.Errorf("engine: a spec is a JSON object, not %.20s", raw)
}

// member is one top-level member of a JSON object, sliced from its
// encoding.
type member struct {
	// raw is the key as written, quotes included.
	raw []byte
	// key is the key unescaped: what encoding/json would decode it to.
	key []byte
	// value is the value as written.
	value []byte
}

// envelopeField reports which envelope field key names: exact is set for
// the field's own name, and field alone for a case variant that
// encoding/json's case-insensitive field matching would accept (it folds
// Unicode as well, so "\u017feed" is a variant of "seed"). field is -1 for
// any other key.
func envelopeField(key []byte) (field int, exact bool) {
	for i, name := range envelopeFields {
		if string(key) == name {
			return i, true
		}
	}
	for i, name := range envelopeFields {
		if len(key) >= len(name) && strings.EqualFold(string(key), name) {
			return i, false
		}
	}
	return -1, false
}

// sortMembers sorts members by key, stably, and keeps only the last of
// each run of equal keys — the members one JSON object decoding would
// keep, in the order its encoding would write them. valid is false if a
// dropped value is not well-formed JSON: no other reader ever sees it.
func sortMembers(members []member) (_ []member, valid bool) {
	slices.SortStableFunc(members, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	valid = true
	out := members[:0]
	for i, m := range members {
		if i+1 < len(members) && bytes.Equal(m.key, members[i+1].key) {
			valid = valid && json.Valid(m.value)
			continue
		}
		out = append(out, m)
	}
	return out, valid
}

// objectMembers appends the top-level members of the JSON object in data
// to dst, in the order written, unescaping each key. It checks only the
// object's own punctuation: the text of keys and values is sliced out,
// and checking it is left to whoever decodes it. ok is false if data is
// not an object of that shape.
func objectMembers(dst []member, data []byte) (_ []member, ok bool) {
	ok = scanMembers(data, func(raw, key, rest []byte) int {
		n := valueEnd(rest, 0)
		if n >= 0 {
			dst = append(dst, member{raw: raw, key: key, value: rest[:n]})
		}
		return n
	})
	return dst, ok
}

// scanMembers walks the top-level members of the JSON object in data, in
// the order written, checking only the object's own punctuation. fn is
// called with each member's key as written (raw), the key unescaped, and
// data from the member's value on; it returns the value's length, or -1
// to stop the walk. scanMembers reports false, having stopped, if data is
// not an object of that shape or fn returns -1.
func scanMembers(data []byte, fn func(raw, key, rest []byte) int) bool {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return skipSpace(data, i+1) == len(data)
	}
	for {
		end, escaped := stringEnd(data, i)
		if end < 0 {
			return false
		}
		raw, key := data[i:end], data[i+1:end-1]
		if escaped {
			var k string
			if json.Unmarshal(raw, &k) != nil {
				return false
			}
			key = []byte(k)
		}
		i = skipSpace(data, end)
		if i == len(data) || data[i] != ':' {
			return false
		}
		i = skipSpace(data, i+1)
		n := fn(raw, key, data[i:])
		if n < 0 {
			return false
		}
		if i = skipSpace(data, i+n); i == len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return skipSpace(data, i+1) == len(data)
		default:
			return false
		}
	}
}

// ScanMembers walks the top-level members of the JSON object in data, in
// the order written, for one-pass decoders of the types that hold specs,
// results and records. fn is called with each member's key and data from
// its value on, and returns the value's length, found by parsing the value
// or by ValueLen, or -1 to stop. Like objectMembers it checks only the
// object's own punctuation: an escaped key is unescaped and an unescaped
// one passed as written, and checking each value is left to fn. It
// reports false, having stopped, if data is not an object or fn returns
// -1; fn may have been called on members before a fault in the object's
// punctuation.
func ScanMembers(data []byte, fn func(key, rest []byte) int) bool {
	return scanMembers(data, func(_, key, rest []byte) int { return fn(key, rest) })
}

// ValueLen returns the length of the JSON value that data starts with, or
// -1 if it is unterminated. Strings and nesting are followed, but nothing
// else is checked.
func ValueLen(data []byte) int { return valueEnd(data, 0) }

// stringEnd returns the index just past the JSON string starting at
// data[i], or -1 if there is none, and whether the string holds an
// escape. Checking the rest of it is left to whoever decodes it.
func stringEnd(data []byte, i int) (end int, escaped bool) {
	if i == len(data) || data[i] != '"' {
		return -1, false
	}
	for j := i + 1; j < len(data); j++ {
		switch data[j] {
		case '"':
			return j + 1, escaped
		case '\\':
			escaped = true
			j++
		}
	}
	return -1, false
}

// valueEnd returns the index just past the JSON value starting at data[i],
// or -1 if it is unterminated. Strings and nesting are followed, but
// nothing else is checked: a literal runs to the next delimiter.
func valueEnd(data []byte, i int) int {
	if i == len(data) {
		return -1
	}
	switch data[i] {
	case '"':
		end, _ := stringEnd(data, i)
		return end
	case '{', '[':
		depth := 0
		for j := i; j < len(data); j++ {
			if !nesting[data[j]] {
				continue
			}
			switch data[j] {
			case '"':
				end, _ := stringEnd(data, j)
				if end < 0 {
					return -1
				}
				j = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return j + 1
				}
			}
		}
		return -1
	}
	j := i
	for j < len(data) && !isSpace(data[j]) && data[j] != ',' && data[j] != '}' && data[j] != ']' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// nesting marks the bytes valueEnd follows inside an object or array;
// skipping the rest with one lookup made BenchmarkStoreOpen about 8%
// faster (5 of 5 interleaved pairs).
var nesting = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

// isNull reports whether data is the JSON literal null.
func isNull(data []byte) bool {
	i := skipSpace(data, 0)
	return len(data)-i >= 4 && string(data[i:i+4]) == "null" && skipSpace(data, i+4) == len(data)
}

// PlainString reports whether value is a JSON string whose text between
// the quotes is plainText: that text is its value.
func PlainString(value []byte) bool {
	return len(value) >= 2 && value[0] == '"' && value[len(value)-1] == '"' && plainText(value[1:len(value)-1])
}

// plainText reports whether text is printable ASCII that encoding/json
// writes between quotes unchanged: no quote, backslash or HTML-escaped
// character.
func plainText[T string | []byte](text T) bool {
	for i := 0; i < len(text); i++ {
		if c := text[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// DecodeInt decodes value into dst as encoding/json does. A JSON integer
// with no sign, fraction or exponent, the form the encoder writes for a
// count, that fits dst is parsed directly; any other value goes through
// encoding/json.
func DecodeInt[T int | int64 | uint64](value []byte, dst *T) error {
	if n, ok := plainUint(value); ok && fits[T](n) {
		*dst = T(n)
		return nil
	}
	return unmarshalInto(value, dst)
}

// fits reports whether n converts to T keeping both its value and its
// sign.
func fits[T int | int64 | uint64](n uint64) bool { return uint64(T(n)) == n && T(n) >= 0 }

// plainUint parses value as a JSON integer with no sign, fraction or
// exponent that fits a uint64.
func plainUint(value []byte) (uint64, bool) {
	n, end, ok := countAt(value, 0)
	return n, ok && end == len(value)
}

// countAt parses the digits at data[i] as the encoders write a count: with
// no sign and no leading zero, and a value that fits a uint64. It returns
// the count and the index just past its digits; the caller checks what
// follows them.
func countAt(data []byte, i int) (n uint64, end int, ok bool) {
	j := i
	for ; j < len(data) && '0' <= data[j] && data[j] <= '9'; j++ {
		d := uint64(data[j] - '0')
		// Nineteen digits always fit; a twentieth may not, and more never.
		if j-i >= 19 && (j-i > 19 || n > (math.MaxUint64-d)/10) {
			return 0, j, false
		}
		n = n*10 + d
	}
	return n, j, j > i && (data[i] != '0' || j == i+1)
}

// DecodeFloat decodes value into dst as encoding/json does. A JSON number
// that parses as a float64 is parsed directly; any other value goes
// through encoding/json.
func DecodeFloat(value []byte, dst *float64) error {
	if f, ok := plainFloat(value); ok {
		*dst = f
		return nil
	}
	return unmarshalInto(value, dst)
}

// plainFloat parses value as a JSON number that fits a float64.
func plainFloat(value []byte) (float64, bool) {
	if numberEnd(value, 0) == len(value) {
		f, err := strconv.ParseFloat(string(value), 64)
		return f, err == nil
	}
	return 0, false
}

// numberEnd returns the index just past the JSON number that starts at
// data[i], by the grammar encoding/json checks, or -1 if none starts
// there. The caller checks what follows it.
func numberEnd(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch j := digitsEnd(data, i); {
	case j == i:
		return -1
	case data[i] == '0': // a leading zero stands alone
		i++
	default:
		i = j
	}
	if i < len(data) && data[i] == '.' {
		j := digitsEnd(data, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		j := i + 1
		if j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		if i = digitsEnd(data, j); i == j {
			return -1
		}
	}
	return i
}

// digitsEnd returns the index of the first byte at or after data[i] that
// is not a decimal digit.
func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// unmarshalInto is json.Unmarshal(value, dst) through a copy of *dst, so
// that dst, which the callers' fast paths write directly, never escapes to
// the heap through encoding/json's interface argument.
func unmarshalInto[T any](value []byte, dst *T) error {
	v := *dst
	err := json.Unmarshal(value, &v)
	*dst = v
	return err
}

// appendKey starts the member named key of the object being written in
// out.
func appendKey(out []byte, key string) []byte {
	out = append(appendComma(out), '"')
	return append(append(out, key...), '"', ':')
}

// appendMember appends m to the object being written in out.
func appendMember(out []byte, m member) []byte {
	out = append(appendComma(out), m.raw...)
	return append(append(out, ':'), m.value...)
}

// appendComma separates a member or element from the one before it, if
// any, in the object or array being written at the end of out.
func appendComma(out []byte) []byte {
	if c := out[len(out)-1]; c != '{' && c != '[' {
		return append(out, ',')
	}
	return out
}

// strictDecoder is a json.Decoder that rejects unknown fields. Its
// source is swapped per call, so one decoder, with its buffer and scanner
// state, serves many decodes.
type strictDecoder struct {
	src bytes.Reader
	dec *json.Decoder
}

var strictDecoders = sync.Pool{New: func() any {
	d := &strictDecoder{}
	d.dec = json.NewDecoder(&d.src)
	d.dec.DisallowUnknownFields()
	return d
}}

// fallbacks counts the spec payloads encoded or decoded by encoding/json.
var fallbacks atomic.Int64

// CodecFallbacks reports how many spec payloads this process has encoded
// or decoded by encoding/json, for tests that pin which specs do not.
func CodecFallbacks() int64 { return fallbacks.Load() }

// strictDecode decodes the JSON value in data into v, rejecting unknown
// fields.
func strictDecode(data []byte, v any) error {
	d := strictDecoders.Get().(*strictDecoder)
	d.src.Reset(data)
	start := d.dec.InputOffset()
	err := d.dec.Decode(v)
	clean := err == nil && d.dec.InputOffset()-start == int64(len(data))
	d.src.Reset(nil)
	if clean {
		// Only a decoder that consumed exactly data goes back: a failed
		// one may hold a sticky error, and unread bytes would be read as
		// the start of the next caller's value.
		strictDecoders.Put(d)
	}
	return err
}

// kind resolves the family discriminant ("" means the registered default).
func (s Spec) kind() string { return kindOrDefault(s.Kind) }

func kindOrDefault(kind string) string {
	if kind == "" {
		return DefaultKind()
	}
	return kind
}

// nilPayload reports whether p is nil or a nil pointer, map or slice: a
// payload that holds nothing behaves like no payload at all, the family's
// zero payload, in every Spec method.
func nilPayload(p Payload) bool {
	if p == nil {
		return true
	}
	switch v := reflect.ValueOf(p); v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		return v.IsNil()
	}
	return false
}

// payloadFor resolves s.Payload as the payload of e's kind. The
// Kind/Payload pair is a caller contract: a payload whose concrete type is
// not the kind's own, as captured at Register, is rejected outright —
// never converted through the codec, where a foreign family whose JSON
// fields happen to be a subset of the kind's would silently run the wrong
// simulation. A nil payload, typed or not, resolves to a fresh zero
// payload of the kind.
func (s Spec) payloadFor(e entry) (Payload, error) {
	if nilPayload(s.Payload) {
		return e.engine.NewPayload(), nil
	}
	if reflect.TypeOf(s.Payload) != e.payload {
		return nil, fmt.Errorf("engine: payload %T does not belong to spec kind %s", s.Payload, s.kind())
	}
	return s.Payload, nil
}

// Clone returns a deep copy: every pointer, slice and map reachable from
// the payload through exported fields is copied, structurally and by
// reflection, so patching one batch cell can never leak into the template
// or a sibling cell. It cannot fail, and it copies a foreign family's
// payload as faithfully as the kind's own; Validate is what rejects that.
// A payload is a pointer (see Payload); any other value is left as it is.
func (s Spec) Clone() Spec {
	if v := reflect.ValueOf(s.Payload); v.Kind() == reflect.Pointer && !v.IsNil() {
		s.Payload = clonePointer(v).Interface().(Payload)
	}
	return s
}

// clonePointer returns a pointer to a deep copy of what the non-nil
// pointer p points to.
func clonePointer(p reflect.Value) reflect.Value {
	c := reflect.New(p.Type().Elem())
	c.Elem().Set(p.Elem())
	deepen(c.Elem())
	return c
}

// deepen gives each pointer, slice and map reachable from the settable v
// through exported fields a copy of its own, in place. Unexported fields
// keep what the struct copy gave them, which is why every field of a
// payload must be exported (the conformance suite checks it).
func deepen(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			v.Set(clonePointer(v))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				deepen(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		if holdsReferences(v.Type().Elem()) {
			for i := range c.Len() {
				deepen(c.Index(i))
			}
		}
		v.Set(c)
	case reflect.Map:
		if v.IsNil() {
			return
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		for it := v.MapRange(); it.Next(); {
			key.SetIterKey(it)
			elem.SetIterValue(it)
			deepen(elem)
			c.SetMapIndex(key, elem)
		}
		v.Set(c)
	}
}

// holdsReferences reports whether deepen has anything to copy in a value
// of type t.
func holdsReferences(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Struct, reflect.Slice, reflect.Map:
		return true
	}
	return false
}

// Normalize returns a copy with the kind made explicit, the spec-codec
// version stamped (V = SpecVersion, the "v" of the canonical encoding) and
// a Clone of the payload rewritten to its canonical form (defaulted fields
// explicit, empty parameter maps dropped), so equivalent specs share one
// canonical encoding; the caller's payload is never rewritten. Specs of
// unknown kinds, and payloads of another kind's type, pass through
// otherwise untouched — Validate, not Normalize, rejects them.
func (s Spec) Normalize() Spec {
	kind := s.kind()
	s.Kind, s.V = kind, SpecVersion
	e, err := lookup(kind)
	if err != nil {
		return s
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return s
	}
	if p == s.Payload {
		p = s.Clone().Payload
	}
	p.Normalize()
	s.Payload = p
	return s
}

// Validate checks that the kind is registered, the payload belongs to it,
// every registry reference resolves and every parameter is in range,
// without materializing the O(n) initial state — it is safe to call on
// every API request.
func (s Spec) Validate() error {
	if s.MaxRounds < 0 {
		return fmt.Errorf("engine: negative max_rounds")
	}
	if s.V != 0 && s.V != SpecVersion {
		return fmt.Errorf("%w: spec has v%d, this binary speaks v%d", ErrSpecVersion, s.V, SpecVersion)
	}
	e, err := lookup(s.kind())
	if err != nil {
		return err
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return err
	}
	return p.Validate()
}

// MaterializedSize reports the payload's MaterializedSize, the quantity
// Admit bounds. 0 means the kind or payload is unknown.
func (s Spec) MaterializedSize() int64 {
	e, err := lookup(s.kind())
	if err != nil {
		return 0
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return 0
	}
	return p.MaterializedSize()
}

// Admit is the one admission step a spec passes before it is cached or
// run: it normalizes the spec, validates it, bounds its MaterializedSize
// by maxSize (0 = no bound) and returns the normalized spec with its
// canonical hash, the SHA-256 of its MarshalJSON output.
func (s Spec) Admit(maxSize int64) (Spec, string, error) {
	s, err := s.admit(maxSize)
	if err != nil {
		return Spec{}, "", err
	}
	canonical, err := s.MarshalJSON()
	if err != nil {
		return Spec{}, "", err
	}
	return s, HashBytes(canonical), nil
}

// admit is Admit without the hash, which Execute needs only for a
// seedless spec.
func (s Spec) admit(maxSize int64) (Spec, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	if maxSize > 0 {
		if n := s.MaterializedSize(); n > maxSize {
			return Spec{}, fmt.Errorf("engine: materialized size %d exceeds the limit %d", n, maxSize)
		}
	}
	return s, nil
}

// Canonical returns the canonical JSON encoding of the normalized spec —
// the byte string the hash, cache and seed derivation are defined over.
func (s Spec) Canonical() ([]byte, error) {
	return s.Normalize().MarshalJSON()
}

// Hash returns the canonical spec hash as a hex string.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return HashBytes(c), nil
}

// HashBytes digests a canonical encoding into the spec hash:
// Hash(s) == HashBytes(s.Canonical()).
func HashBytes(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// DeriveSeed maps a canonical spec hash to a run seed via the splitmix64
// finalizer, so seedless specs get a deterministic, well-mixed seed.
func DeriveSeed(hash string) uint64 {
	var buf [64]byte // a hash's 64 hex digits, digested without a heap copy
	sum := sha256.Sum256(append(buf[:0], hash...))
	return rng.Mix64(binary.LittleEndian.Uint64(sum[:8]))
}

// ApplyAxis patches the named sweep parameter: the shared envelope axes
// ("seed", "max_rounds") directly, everything else through the payload's
// AxisApplier — the name must be one of the kind's Descriptor().Axes.
func (s *Spec) ApplyAxis(param string, v float64) error {
	switch param {
	case "seed":
		sv, err := intAxis(param, v)
		if err != nil {
			return err
		}
		s.SetSeed(uint64(sv))
		return nil
	case "max_rounds":
		mr, err := intAxis(param, v)
		if err != nil {
			return err
		}
		s.MaxRounds = int(mr)
		return nil
	}
	e, err := lookup(s.kind())
	if err != nil {
		return err
	}
	if !e.axes[param] {
		return fmt.Errorf("engine: kind %s has no batch axis %q", s.kind(), param)
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return err
	}
	a, ok := p.(AxisApplier)
	if !ok {
		return fmt.Errorf("engine: kind %s payload does not apply axes", s.kind())
	}
	if err := a.ApplyAxis(param, v); err != nil {
		return err
	}
	s.Payload = p
	return nil
}

// SetSeed sets the run seed and keeps seed-consuming init kinds in step
// with it (SeedFollower), so batch repetitions draw distinct initial
// states.
func (s *Spec) SetSeed(seed uint64) {
	s.Seed = seed
	if f, ok := s.Payload.(SeedFollower); ok && !nilPayload(s.Payload) {
		f.FollowSeed(seed)
	}
}

// AxisOK reports whether the kind supports the named batch axis (shared
// envelope axes included).
func (s Spec) AxisOK(param string) bool {
	if param == "seed" || param == "max_rounds" {
		return true
	}
	e, err := lookup(s.kind())
	return err == nil && e.axes[param]
}

// intAxis rejects non-integral axis values for integer parameters — shared
// by the envelope axes here and the family AxisAppliers.
func intAxis(param string, v float64) (int64, error) {
	if v != float64(int64(v)) {
		return 0, fmt.Errorf("engine: batch axis %q needs integer values, got %v", param, v)
	}
	return int64(v), nil
}

// IntAxis rejects non-integral axis values for integer parameters; exported
// for the family packages' AxisApplier implementations.
func IntAxis(param string, v float64) (int, error) {
	sv, err := intAxis(param, v)
	return int(sv), err
}
