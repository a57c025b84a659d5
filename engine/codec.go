package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"time"
)

// This file is the one-pass codec of the types a run reports: Record and
// Result, RunTiming included. The encoders write byte for byte what
// encoding/json writes for these types, which stays the reference; the
// decoders parse the shapes the encoders write and leave the rest to
// encoding/json.

// UnmarshalJSON decodes a record as encoding/json decodes it into a Record
// without this method. The scalar members, as the encoder writes them, are
// parsed in one pass over data; any other record, such as one with a
// leader_point or a key spelled another way, goes through encoding/json.
// The store reloads every persisted record through this decoder, and the
// client every streamed one.
func (r *Record) UnmarshalJSON(data []byte) error {
	rec := *r
	if EachMember(data, func(key, value []byte) bool {
		switch string(key) {
		case "round":
			return DecodeInt(value, &rec.Round) == nil
		case "n":
			return DecodeInt(value, &rec.N) == nil
		case "support":
			return DecodeInt(value, &rec.Support) == nil
		case "leader":
			return DecodeInt(value, &rec.Leader) == nil
		case "leader_count":
			return DecodeInt(value, &rec.LeaderCount) == nil
		case "absorbed":
			return DecodeFloat(value, &rec.Absorbed) == nil
		}
		return false
	}) {
		*r = rec
		return nil
	}
	type plain Record
	return json.Unmarshal(data, (*plain)(r))
}

// AppendJSON appends the record's JSON encoding to out: what encoding/json
// writes for a Record, or the error it returns (a NaN or infinite
// Absorbed), with out returned as it was passed.
func (r *Record) AppendJSON(out []byte) ([]byte, error) {
	start := len(out)
	out = strconv.AppendInt(append(out, `{"round":`...), int64(r.Round), 10)
	out = strconv.AppendInt(append(out, `,"n":`...), r.N, 10)
	out = strconv.AppendInt(append(out, `,"support":`...), int64(r.Support), 10)
	out = strconv.AppendInt(append(out, `,"leader":`...), r.Leader, 10)
	out = strconv.AppendInt(append(out, `,"leader_count":`...), r.LeaderCount, 10)
	if r.LeaderPoint != nil {
		out = appendInts(append(out, `,"leader_point":`...), *r.LeaderPoint)
	}
	var err error
	if r.Absorbed != 0 {
		out = appendFloat(append(out, `,"absorbed":`...), r.Absorbed, &err)
	}
	if err != nil {
		return out[:start], err
	}
	return append(out, '}'), nil
}

// AppendJSON appends the result's JSON encoding to out: what encoding/json
// writes for a Result, every optional member and the timing included, or
// the error it returns (the first NaN or infinite float), with out
// returned as it was passed.
func (r *Result) AppendJSON(out []byte) ([]byte, error) {
	start := len(out)
	out = strconv.AppendInt(append(out, `{"rounds":`...), int64(r.Rounds), 10)
	out = AppendString(append(out, `,"reason":`...), r.Reason)
	out = strconv.AppendInt(append(out, `,"winner":`...), r.Winner, 10)
	out = strconv.AppendInt(append(out, `,"winner_count":`...), r.WinnerCount, 10)
	out = strconv.AppendInt(append(out, `,"stable_since":`...), int64(r.StableSince), 10)
	out = strconv.AppendUint(append(out, `,"seed":`...), r.Seed, 10)
	if m := r.Messages; m != nil {
		out = strconv.AppendInt(append(out, `,"messages":{"requests_sent":`...), m.RequestsSent, 10)
		out = strconv.AppendInt(append(out, `,"requests_dropped":`...), m.RequestsDropped, 10)
		out = strconv.AppendInt(append(out, `,"max_in_degree":`...), int64(m.MaxInDegree), 10)
		out = append(out, '}')
	}
	if len(r.WinnerPoint) > 0 {
		out = appendInts(append(out, `,"winner_point":`...), r.WinnerPoint)
	}
	if r.TupleValid != nil {
		out = strconv.AppendBool(append(out, `,"tuple_valid":`...), *r.TupleValid)
	}
	if r.CoordValid != nil {
		out = strconv.AppendBool(append(out, `,"coord_valid":`...), *r.CoordValid)
	}
	if r.Steps != 0 {
		out = strconv.AppendInt(append(out, `,"steps":`...), int64(r.Steps), 10)
	}
	var err error
	if r.ParallelTime != 0 {
		out = appendFloat(append(out, `,"parallel_time":`...), r.ParallelTime, &err)
	}
	if r.Dissenters != 0 {
		out = strconv.AppendInt(append(out, `,"dissenters":`...), int64(r.Dissenters), 10)
	}
	if e := r.Exact; e != nil {
		out = appendFloat(append(out, `,"exact":{"expected_rounds":`...), e.ExpectedRounds, &err)
		out = appendFloat(append(out, `,"win_probability":`...), e.WinProbability, &err)
		out = appendFloat(append(out, `,"absorbed_by_end":`...), e.AbsorbedByEnd, &err)
		out = append(out, '}')
	}
	if t := r.Timing; t != nil {
		out = appendFloat(append(out, `,"timing":{"queue_wait_seconds":`...), t.QueueWaitSeconds, &err)
		out = appendFloat(append(out, `,"run_seconds":`...), t.RunSeconds, &err)
		out = appendFloat(append(out, `,"total_seconds":`...), t.TotalSeconds, &err)
		out = strconv.AppendInt(append(out, `,"records_emitted":`...), int64(t.RecordsEmitted), 10)
		if t.RecordsTruncated != 0 {
			out = strconv.AppendInt(append(out, `,"records_truncated":`...), int64(t.RecordsTruncated), 10)
		}
		if t.RoundsPerSec != 0 {
			out = appendFloat(append(out, `,"rounds_per_sec":`...), t.RoundsPerSec, &err)
		}
		out = append(out, '}')
	}
	if err != nil {
		return out[:start], err
	}
	return append(out, '}'), nil
}

// DecodeResult parses a result's scalar members and its timing into res,
// decoding each member in place as encoding/json would. It reports false
// for any other result: one holding a member it does not parse (messages,
// exact, winner_point, tuple_valid, coord_valid, a null timing or a key
// spelled another way), or a value encoding/json would reject. res may
// then be partly written; the caller decodes the whole document again
// with encoding/json.
func DecodeResult(data []byte, res *Result) bool {
	return EachMember(data, func(key, value []byte) bool {
		switch string(key) {
		case "rounds":
			return DecodeInt(value, &res.Rounds) == nil
		case "reason":
			return DecodeString(value, &res.Reason) == nil
		case "winner":
			return DecodeInt(value, &res.Winner) == nil
		case "winner_count":
			return DecodeInt(value, &res.WinnerCount) == nil
		case "stable_since":
			return DecodeInt(value, &res.StableSince) == nil
		case "seed":
			return DecodeInt(value, &res.Seed) == nil
		case "steps":
			return DecodeInt(value, &res.Steps) == nil
		case "parallel_time":
			return DecodeFloat(value, &res.ParallelTime) == nil
		case "dissenters":
			return DecodeInt(value, &res.Dissenters) == nil
		case "timing":
			if res.Timing == nil {
				res.Timing = new(RunTiming)
			}
			return decodeTiming(value, res.Timing)
		}
		return false
	})
}

// decodeTiming parses a result's timing into t.
func decodeTiming(data []byte, t *RunTiming) bool {
	return EachMember(data, func(key, value []byte) bool {
		switch string(key) {
		case "queue_wait_seconds":
			return DecodeFloat(value, &t.QueueWaitSeconds) == nil
		case "run_seconds":
			return DecodeFloat(value, &t.RunSeconds) == nil
		case "total_seconds":
			return DecodeFloat(value, &t.TotalSeconds) == nil
		case "records_emitted":
			return DecodeInt(value, &t.RecordsEmitted) == nil
		case "records_truncated":
			return DecodeInt(value, &t.RecordsTruncated) == nil
		case "rounds_per_sec":
			return DecodeFloat(value, &t.RoundsPerSec) == nil
		}
		return false
	})
}

// DecodeString decodes value into dst as encoding/json does. A string
// whose text is plain (see PlainString) is sliced out directly; any other
// value goes through encoding/json.
func DecodeString(value []byte, dst *string) error {
	if PlainString(value) {
		*dst = string(value[1 : len(value)-1])
		return nil
	}
	return unmarshalInto(value, dst)
}

// DecodeTime decodes value into dst as encoding/json does: a plain string
// goes straight to the time.Time decoder encoding/json calls, any other
// value through encoding/json.
func DecodeTime(value []byte, dst *time.Time) error {
	if PlainString(value) {
		return dst.UnmarshalJSON(value)
	}
	return unmarshalInto(value, dst)
}

// AppendString appends str as a JSON string, spelled as encoding/json
// spells it: HTML characters, U+2028 and U+2029 escaped and invalid UTF-8
// replaced.
func AppendString(out []byte, str string) []byte {
	if plainText(str) {
		return append(append(append(out, '"'), str...), '"')
	}
	buf, _ := json.Marshal(str)
	return append(out, buf...)
}

// appendInts appends vals as encoding/json writes an []int64: null for a
// nil slice.
func appendInts(out []byte, vals []int64) []byte {
	if vals == nil {
		return append(out, "null"...)
	}
	out = append(out, '[')
	for i, v := range vals {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, v, 10)
	}
	return append(out, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 or from 1e21
// on. encoding/json fails on NaN and ±Inf; appendFloat then sets *err to
// the error it returns, unless *err is already set, and appends nothing.
func appendFloat(out []byte, f float64, err *error) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return out
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	out = strconv.AppendFloat(out, f, format, -1, 64)
	if n := len(out); format == 'e' && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
		// e-07 is written e-7.
		out[n-2] = out[n-1]
		out = out[:n-1]
	}
	return out
}
