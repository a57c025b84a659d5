package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"repro/engine"
)

// EncodeRun renders a Run as its frame payload: byte for byte what
// encoding/json writes for a Run, which stays the reference, or the error
// it returns (a spec that does not encode, a NaN float, a time outside
// years 0 to 9999). The output is deterministic for a normalized spec (the
// spec codec sorts keys), so encode∘decode∘encode is byte-identical.
func EncodeRun(r Run) ([]byte, error) { return encodeRun(&r, 0) }

// encodeRun encodes r into a new buffer, sized for it up front, behind
// head bytes left for the caller: a frame header, say.
func encodeRun(r *Run, head int) ([]byte, error) {
	spec, err := r.Spec.MarshalJSON()
	if err != nil {
		return nil, &json.MarshalerError{Type: specType, Err: err}
	}
	out := make([]byte, head, head+r.sizeHint(len(spec)))
	out = append(out, '{')
	if r.ID != "" {
		out = append(engine.AppendString(append(out, `"id":`...), r.ID), ',')
	}
	out = engine.AppendString(append(out, `"spec_hash":`...), r.SpecHash)
	if r.RequestID != "" {
		out = engine.AppendString(append(out, `,"request_id":`...), r.RequestID)
	}
	out = append(append(out, `,"spec":`...), spec...)
	if out, err = r.Result.AppendJSON(append(out, `,"result":`...)); err != nil {
		return nil, err
	}
	if len(r.Records) > 0 {
		out = append(out, `,"records":[`...)
		for i := range r.Records {
			if i > 0 {
				out = append(out, ',')
			}
			if out, err = r.Records[i].AppendJSON(out); err != nil {
				return nil, err
			}
		}
		out = append(out, ']')
	}
	if r.Truncated != 0 {
		out = strconv.AppendInt(append(out, `,"truncated":`...), int64(r.Truncated), 10)
	}
	out = engine.AppendTime(append(out, `,"created":`...), r.Created, timeType, &err)
	out = engine.AppendTime(append(out, `,"started":`...), r.Started, timeType, &err)
	out = engine.AppendTime(append(out, `,"finished":`...), r.Finished, timeType, &err)
	if err != nil {
		return nil, err
	}
	return append(out, '}'), nil
}

// sizeHint bounds, for runs like the service's, the length of r's
// encoding with a spec encoded in specLen bytes: a round record takes up
// 80 bytes or so, 21 more per leader_point coordinate.
func (r *Run) sizeHint(specLen int) int {
	n := 384 + specLen + len(r.ID) + len(r.SpecHash) + len(r.RequestID) + 80*len(r.Records)
	for i := range r.Records {
		if p := r.Records[i].LeaderPoint; p != nil {
			n += 21 * len(*p)
		}
	}
	return n
}

// The types encoding/json names in the errors of a run's spec and
// timestamps.
var (
	specType = reflect.TypeFor[engine.Spec]()
	timeType = reflect.TypeFor[time.Time]()
)

// DecodeRun parses a frame payload. The spec's kind must be registered
// and its canonical encoding must carry the current engine.SpecVersion —
// a record persisted under a different spec codec must never be
// reinterpreted (or served) under this binary's keys; recovery preserves
// such frames opaquely instead (errors.Is(err, engine.ErrSpecVersion)).
//
// One pass over the frame's members parses its ids and timestamps, the
// spec through engine.Spec's own decoder, and the result with its timing
// and the records array through engine.DecodeResult and
// engine.DecodeRecords, which parse each where they scan it. A
// frame holding anything else goes through encoding/json, the reference
// both paths decode every frame like: a member the pass does not parse
// (an unknown key, a key spelled another way, a result not written as
// Result.AppendJSON writes one without messages, exact or winner_point),
// a records array written twice, a record encoding/json rejects, or a
// spec under another version.
func DecodeRun(payload []byte) (Run, error) {
	if r, ok := decodeRun(payload); ok {
		return r, nil
	}
	var frame struct {
		Run
		Records []plainRecord `json:"records,omitempty"`
	}
	if err := json.Unmarshal(payload, &frame); err != nil {
		return Run{}, err
	}
	r := frame.Run
	if frame.Records != nil {
		r.Records = make([]engine.Record, len(frame.Records))
		for i, rec := range frame.Records {
			r.Records[i] = engine.Record(rec)
		}
	}
	if r.Spec.V != engine.SpecVersion {
		return Run{}, fmt.Errorf("%w: persisted spec has v%d, this binary speaks v%d",
			engine.ErrSpecVersion, r.Spec.V, engine.SpecVersion)
	}
	return r, nil
}

// plainRecord is engine.Record without its decoder, for DecodeRun's
// encoding/json path. There a bad record stays what it is to encoding/json
// in a plain struct: a type error it notes while it decodes the rest of
// the frame, whose spec may still report engine.ErrSpecVersion. A decoder
// method's error would end the decode instead.
type plainRecord engine.Record

// decodeRun is DecodeRun's one pass. It reports false for a frame it does
// not parse, or whose spec is not under engine.SpecVersion. Members are
// decoded in place in the order written, so a repeated key overwrites, or
// for result merges into, what the earlier one set, as encoding/json does.
// The result and the records array are parsed where they are scanned;
// every other value is found first, then decoded.
func decodeRun(payload []byte) (Run, bool) {
	var r Run
	ok := engine.ScanMembers(payload, func(key, rest []byte) int {
		switch string(key) {
		case "records":
			// encoding/json decodes a second array into the first one's
			// elements.
			if r.Records != nil {
				return -1
			}
			return engine.DecodeRecords(rest, &r.Records)
		case "result":
			return engine.DecodeResult(rest, &r.Result)
		}
		n := engine.ValueLen(rest)
		if n < 0 || !r.decodeMember(key, rest[:n]) {
			return -1
		}
		return n
	})
	return r, ok && r.Spec.V == engine.SpecVersion
}

// decodeMember decodes the value of the member named key, other than
// records and result, into r.
func (r *Run) decodeMember(key, value []byte) bool {
	switch string(key) {
	case "id":
		return engine.DecodeString(value, &r.ID) == nil
	case "spec_hash":
		return engine.DecodeString(value, &r.SpecHash) == nil
	case "request_id":
		return engine.DecodeString(value, &r.RequestID) == nil
	case "spec":
		return r.Spec.UnmarshalJSON(value) == nil
	case "truncated":
		return engine.DecodeInt(value, &r.Truncated) == nil
	case "created":
		return engine.DecodeTime(value, &r.Created) == nil
	case "started":
		return engine.DecodeTime(value, &r.Started) == nil
	case "finished":
		return engine.DecodeTime(value, &r.Finished) == nil
	}
	return false
}
