package store

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/engine"
)

// DecodeRun parses a frame payload. The spec's kind must be registered
// and its canonical encoding must carry the current engine.SpecVersion —
// a record persisted under a different spec codec must never be
// reinterpreted (or served) under this binary's keys; recovery preserves
// such frames opaquely instead (errors.Is(err, engine.ErrSpecVersion)).
//
// One pass over the frame's members parses its ids and timestamps, the
// spec through engine.Spec's own decoder, the result's scalars and
// timing through engine.DecodeResult, and each record through
// engine.Record's decoder. A frame holding anything else goes through
// encoding/json, the reference both paths decode every frame like: a
// member the pass does not parse (an unknown key, a key spelled another
// way, a result's messages, exact or winner_point), a records array
// written twice, or a spec under another version.
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
func decodeRun(payload []byte) (Run, bool) {
	var r Run
	ok := engine.EachMember(payload, func(key, value []byte) bool {
		switch string(key) {
		case "id":
			return engine.DecodeString(value, &r.ID) == nil
		case "spec_hash":
			return engine.DecodeString(value, &r.SpecHash) == nil
		case "request_id":
			return engine.DecodeString(value, &r.RequestID) == nil
		case "spec":
			return r.Spec.UnmarshalJSON(value) == nil
		case "result":
			return engine.DecodeResult(value, &r.Result)
		case "records":
			// encoding/json decodes a second array into the first one's
			// elements.
			return r.Records == nil && decodeRecords(value, &r.Records)
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
	})
	return r, ok && r.Spec.V == engine.SpecVersion
}

// decodeRecords parses a records array into a new slice at dst.
func decodeRecords(data []byte, dst *[]engine.Record) bool {
	// Each record is one object and holds no other: the braces count them.
	recs := make([]engine.Record, 0, bytes.Count(data, []byte{'{'}))
	ok := engine.EachElement(data, func(value []byte) bool {
		recs = append(recs, engine.Record{})
		return recs[len(recs)-1].UnmarshalJSON(value) == nil
	})
	*dst = recs
	return ok
}
