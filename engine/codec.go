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
// without this method. A record of the shape the encoder writes is parsed
// in one pass over data; any other record, such as one with a
// leader_point or a key spelled another way, goes through encoding/json.
// The client decodes every streamed record through it.
func (r *Record) UnmarshalJSON(data []byte) error {
	rec := *r
	if end, ok := rec.parse(data, skipSpace(data, 0)); ok && skipSpace(data, end) == len(data) {
		*r = rec
		return nil
	}
	return unmarshalInto(data, (*plainRecord)(r))
}

// plainRecord is Record without its decoder, for encoding/json.
type plainRecord Record

// parse decodes the record object that starts at data[i] into r, in place
// as encoding/json would, and returns the index just past it. It reads the
// scalar members in the forms the encoder writes, in any order, a repeated
// one overwriting the earlier. It reports false, with r partly written,
// for any other record: one with a leader_point, an escaped key or a key
// spelled another way, or a value encoding/json would reject.
func (r *Record) parse(data []byte, i int) (end int, ok bool) {
	if i == len(data) || data[i] != '{' {
		return i, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	for {
		j, escaped := stringEnd(data, i)
		if j < 0 || escaped {
			return i, false
		}
		key := data[i+1 : j-1]
		if i = skipSpace(data, j); i == len(data) || data[i] != ':' {
			return i, false
		}
		i = skipSpace(data, i+1)
		switch string(key) {
		case "round":
			i, ok = intAt(data, i, &r.Round)
		case "n":
			i, ok = intAt(data, i, &r.N)
		case "support":
			i, ok = intAt(data, i, &r.Support)
		case "leader":
			i, ok = intAt(data, i, &r.Leader)
		case "leader_count":
			i, ok = intAt(data, i, &r.LeaderCount)
		case "absorbed":
			j = valueEnd(data, i)
			ok = j >= 0 && DecodeFloat(data[i:j], &r.Absorbed) == nil
			i = j
		default:
			return i, false
		}
		if !ok {
			return i, false
		}
		if i = skipSpace(data, i); i == len(data) {
			return i, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// intAt decodes the JSON value that starts at data[i] into dst as
// DecodeInt does, and returns the index just past it. A count of at most
// 18 digits, the form the encoder writes, is parsed as it is scanned.
func intAt[T int | int64](data []byte, i int, dst *T) (end int, ok bool) {
	var n uint64
	j := i
	for ; j < len(data) && j-i < 19 && '0' <= data[j] && data[j] <= '9'; j++ {
		n = n*10 + uint64(data[j]-'0')
	}
	digits := j - i
	plain := digits > 0 && digits < 19 && (data[i] != '0' || digits == 1) && j < len(data) && delimiter[data[j]]
	if plain && uint64(T(n)) == n && T(n) >= 0 {
		*dst = T(n)
		return j, true
	}
	if end = valueEnd(data, i); end < 0 {
		return i, false
	}
	return end, DecodeInt(data[i:end], dst) == nil
}

// delimiter marks the bytes that end a JSON number.
var delimiter = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, ',': true, '}': true, ']': true}

// DecodeRecords decodes the JSON array of records that data starts with
// into a new slice at dst, as encoding/json decodes it into a nil
// []Record, and returns the array's length. It is one pass over the
// array: each element is parsed where it is scanned, and one parse does
// not read is skipped to its end and decoded through encoding/json. It
// returns -1, leaving dst as it was, if data does not start with an array
// or encoding/json rejects an element.
func DecodeRecords(data []byte, dst *[]Record) int {
	// Most runs' records fit on the stack; the slice kept is sized exactly.
	var stack [64]Record
	recs := stack[:0]
	if len(data) == 0 || data[0] != '[' {
		return -1
	}
	i := skipSpace(data, 1)
	if i == len(data) || data[i] != ']' {
		for {
			recs = append(recs, Record{})
			r := &recs[len(recs)-1]
			end, ok := r.parse(data, i)
			if !ok {
				*r = Record{}
				if end = valueEnd(data, i); end < 0 || unmarshalInto(data[i:end], (*plainRecord)(r)) != nil {
					return -1
				}
			}
			if i = skipSpace(data, end); i == len(data) || data[i] != ',' {
				break
			}
			i = skipSpace(data, i+1)
		}
		if i == len(data) || data[i] != ']' {
			return -1
		}
	}
	*dst = append(make([]Record, 0, len(recs)), recs...)
	return i + 1
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

// AppendTime appends t as encoding/json writes a member of type typ, a
// time.Time or *time.Time. encoding/json fails on a time RFC 3339 cannot
// write; AppendTime then sets *err to the error it returns, unless *err
// is already set, and appends nothing.
func AppendTime(out []byte, t time.Time, typ reflect.Type, err *error) []byte {
	text, terr := t.AppendText(append(out, '"'))
	if terr != nil {
		if *err == nil {
			_, terr = t.MarshalJSON()
			*err = &json.MarshalerError{Type: typ, Err: terr}
		}
		return out
	}
	return append(text, '"')
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
