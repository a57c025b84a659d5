package service

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/engine"
)

// AppendJSON appends the view's JSON encoding to out: byte for byte what
// encoding/json writes for a JobView without this file's methods, which
// stays the reference, or the error it returns (a NaN float, a time
// outside years 0 to 9999, a spec that does not encode), with out returned
// as it was passed. The API writes the view of a submit, get or cancel
// through it.
func (v *JobView) AppendJSON(out []byte) ([]byte, error) {
	start := len(out)
	out = engine.AppendString(append(out, `{"id":`...), v.ID)
	out = engine.AppendString(append(out, `,"spec_hash":`...), v.SpecHash)
	out = engine.AppendString(append(out, `,"status":`...), string(v.Status))
	out = strconv.AppendBool(append(out, `,"cache_hit":`...), v.CacheHit)
	var err error
	if v.Result != nil {
		out, err = v.Result.AppendJSON(append(out, `,"result":`...))
	}
	if v.Error != "" {
		out = engine.AppendString(append(out, `,"error":`...), v.Error)
	}
	if v.RequestID != "" {
		out = engine.AppendString(append(out, `,"request_id":`...), v.RequestID)
	}
	out = strconv.AppendInt(append(out, `,"records":`...), int64(v.Records), 10)
	if v.Truncated != 0 {
		out = strconv.AppendInt(append(out, `,"truncated":`...), int64(v.Truncated), 10)
	}
	out = engine.AppendTime(append(out, `,"created":`...), v.Created, timeType, &err)
	if v.Started != nil {
		out = engine.AppendTime(append(out, `,"started":`...), *v.Started, timePtrType, &err)
	}
	if v.Finished != nil {
		out = engine.AppendTime(append(out, `,"finished":`...), *v.Finished, timePtrType, &err)
	}
	if err != nil {
		return out[:start], err
	}
	spec, err := v.Spec.MarshalJSON()
	if err != nil {
		return out[:start], &json.MarshalerError{Type: specType, Err: err}
	}
	out = append(append(out, `,"spec":`...), spec...)
	return append(out, '}'), nil
}

// The types encoding/json names in the errors of a view's timestamps and
// spec.
var (
	timeType    = reflect.TypeFor[time.Time]()
	timePtrType = reflect.TypeFor[*time.Time]()
	specType    = reflect.TypeFor[Spec]()
)

// UnmarshalJSON decodes a view as encoding/json decodes it into a JobView
// without this method. The members AppendJSON writes, in the forms it
// writes them, are parsed in one pass over data: the result through
// engine.DecodeResult, where it is scanned, the spec through its own
// decoder. Any other view, such as one with a member written null, a key
// spelled another way or a gossip result's messages, goes through
// encoding/json. The client decodes every view it receives through it.
func (v *JobView) UnmarshalJSON(data []byte) error {
	view := *v
	if engine.ScanMembers(data, func(key, rest []byte) int {
		if string(key) == "result" {
			if view.Result == nil {
				view.Result = new(RunResult)
			}
			return engine.DecodeResult(rest, view.Result)
		}
		n := engine.ValueLen(rest)
		if n < 0 || !view.decodeMember(key, rest[:n]) {
			return -1
		}
		return n
	}) {
		*v = view
		return nil
	}
	type plain JobView
	return json.Unmarshal(data, (*plain)(v))
}

// decodeMember decodes the value of the member named key, other than
// result, into v.
func (v *JobView) decodeMember(key, value []byte) bool {
	switch string(key) {
	case "id":
		return engine.DecodeString(value, &v.ID) == nil
	case "spec_hash":
		return engine.DecodeString(value, &v.SpecHash) == nil
	case "status":
		return engine.DecodeString(value, (*string)(&v.Status)) == nil
	case "cache_hit":
		return decodeBool(value, &v.CacheHit)
	case "error":
		return engine.DecodeString(value, &v.Error) == nil
	case "request_id":
		return engine.DecodeString(value, &v.RequestID) == nil
	case "records":
		return engine.DecodeInt(value, &v.Records) == nil
	case "truncated":
		return engine.DecodeInt(value, &v.Truncated) == nil
	case "created":
		return engine.DecodeTime(value, &v.Created) == nil
	case "started":
		return decodeTimePtr(value, &v.Started)
	case "finished":
		return decodeTimePtr(value, &v.Finished)
	case "spec":
		return v.Spec.UnmarshalJSON(value) == nil
	}
	return false
}

// decodeBool parses a JSON boolean into dst.
func decodeBool(value []byte, dst *bool) bool {
	switch string(value) {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return false
	}
	return true
}

// decodeTimePtr parses a timestamp, a plain string, into the time dst
// points to, allocating it if dst is nil, as encoding/json does. It
// reports false for anything else: encoding/json decodes null, for one,
// to a nil pointer.
func decodeTimePtr(value []byte, dst **time.Time) bool {
	if !engine.PlainString(value) {
		return false
	}
	if *dst == nil {
		*dst = new(time.Time)
	}
	return (*dst).UnmarshalJSON(value) == nil
}

// buffers holds the buffers that views and stream lines are encoded into
// before their one write.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuffer bounds the buffers that go back to the pool, so that a
// long stream's does not stay held.
const maxPooledBuffer = 64 << 10

func getBuffer() *[]byte { return buffers.Get().(*[]byte) }

func putBuffer(buf *[]byte) {
	if cap(*buf) <= maxPooledBuffer {
		*buf = (*buf)[:0]
		buffers.Put(buf)
	}
}

// writeView writes v as the JSON response body with one write, as
// writeJSON would write it: a view that does not encode leaves the body
// empty.
func writeView(w http.ResponseWriter, status int, v *JobView) {
	buf := getBuffer()
	defer putBuffer(buf)
	out, err := v.AppendJSON(*buf)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err == nil {
		out = append(out, '\n')
		_, _ = w.Write(out)
	}
	*buf = out
}
