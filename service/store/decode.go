package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

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
// timing, and each record through engine.Record's decoder. A frame
// holding anything else goes through encoding/json, the reference both
// paths decode every frame like: a member the pass does not parse (an
// unknown key, a key spelled another way, a result's messages, exact or
// winner_point), a string with escapes, a records array written twice,
// or a spec under another version.
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
			return decodeString(value, &r.ID)
		case "spec_hash":
			return decodeString(value, &r.SpecHash)
		case "request_id":
			return decodeString(value, &r.RequestID)
		case "spec":
			return r.Spec.UnmarshalJSON(value) == nil
		case "result":
			return decodeResult(value, &r.Result)
		case "records":
			// encoding/json decodes a second array into the first one's
			// elements.
			return r.Records == nil && decodeRecords(value, &r.Records)
		case "truncated":
			return engine.DecodeInt(value, &r.Truncated) == nil
		case "created":
			return decodeTime(value, &r.Created)
		case "started":
			return decodeTime(value, &r.Started)
		case "finished":
			return decodeTime(value, &r.Finished)
		}
		return false
	})
	return r, ok && r.Spec.V == engine.SpecVersion
}

// decodeResult parses a result's scalar members and its timing into res.
func decodeResult(data []byte, res *engine.Result) bool {
	return engine.EachMember(data, func(key, value []byte) bool {
		switch string(key) {
		case "rounds":
			return engine.DecodeInt(value, &res.Rounds) == nil
		case "reason":
			return decodeString(value, &res.Reason)
		case "winner":
			return engine.DecodeInt(value, &res.Winner) == nil
		case "winner_count":
			return engine.DecodeInt(value, &res.WinnerCount) == nil
		case "stable_since":
			return engine.DecodeInt(value, &res.StableSince) == nil
		case "seed":
			return engine.DecodeInt(value, &res.Seed) == nil
		case "steps":
			return engine.DecodeInt(value, &res.Steps) == nil
		case "parallel_time":
			return engine.DecodeFloat(value, &res.ParallelTime) == nil
		case "dissenters":
			return engine.DecodeInt(value, &res.Dissenters) == nil
		case "timing":
			if res.Timing == nil {
				res.Timing = new(engine.RunTiming)
			}
			return decodeTiming(value, res.Timing)
		}
		return false
	})
}

// decodeTiming parses a result's timing into t.
func decodeTiming(data []byte, t *engine.RunTiming) bool {
	return engine.EachMember(data, func(key, value []byte) bool {
		switch string(key) {
		case "queue_wait_seconds":
			return engine.DecodeFloat(value, &t.QueueWaitSeconds) == nil
		case "run_seconds":
			return engine.DecodeFloat(value, &t.RunSeconds) == nil
		case "total_seconds":
			return engine.DecodeFloat(value, &t.TotalSeconds) == nil
		case "records_emitted":
			return engine.DecodeInt(value, &t.RecordsEmitted) == nil
		case "records_truncated":
			return engine.DecodeInt(value, &t.RecordsTruncated) == nil
		case "rounds_per_sec":
			return engine.DecodeFloat(value, &t.RoundsPerSec) == nil
		}
		return false
	})
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

// decodeString parses a string without escapes into dst.
func decodeString(value []byte, dst *string) bool {
	if !engine.PlainString(value) {
		return false
	}
	*dst = string(value[1 : len(value)-1])
	return true
}

// decodeTime parses a timestamp, a string without escapes, into dst with
// the decoder encoding/json calls.
func decodeTime(value []byte, dst *time.Time) bool {
	return engine.PlainString(value) && dst.UnmarshalJSON(value) == nil
}
