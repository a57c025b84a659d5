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
// encoding/json writes for these types, which stays the reference. The
// decoders read a value as the encoders write it, keys in their order and
// each value in its form, with no key scanned or looked up, and leave any
// other shape to encoding/json.

// UnmarshalJSON decodes a record as encoding/json decodes it into a Record
// without this method. A record as the encoder writes it is parsed in one
// pass over data; any other record, such as one with a leader_point or a
// key spelled another way, goes through encoding/json. The client decodes
// every streamed record through it.
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

// parse decodes the record that starts at data[i] into r, in place as
// encoding/json would, and returns the index just past it, if it is
// written as AppendJSON writes a record with no leader_point. It reports
// false, with r partly written, for any other record.
func (r *Record) parse(data []byte, i int) (end int, ok bool) {
	c := cursor{data: data, i: i, ok: true}
	c.lit(`{"round":`)
	readInt(&c, &r.Round)
	c.lit(`,"n":`)
	readInt(&c, &r.N)
	c.lit(`,"support":`)
	readInt(&c, &r.Support)
	c.lit(`,"leader":`)
	readInt(&c, &r.Leader)
	c.lit(`,"leader_count":`)
	readInt(&c, &r.LeaderCount)
	if c.opt(`,"absorbed":`) {
		c.float(&r.Absorbed)
	}
	ok = c.lit("}")
	return c.i, ok
}

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

// DecodeResult decodes the result that data starts with into res, each
// member in place as encoding/json would decode it, and returns its
// length, if it is written as AppendJSON writes a result with no
// messages, winner_point, tuple_valid, coord_valid or exact. It returns
// -1 for any other result; res may then be partly written, and the caller
// decodes the whole document again with encoding/json.
func DecodeResult(data []byte, res *Result) int {
	c := cursor{data: data, ok: true}
	c.lit(`{"rounds":`)
	readInt(&c, &res.Rounds)
	c.lit(`,"reason":`)
	c.str(&res.Reason)
	c.lit(`,"winner":`)
	readInt(&c, &res.Winner)
	c.lit(`,"winner_count":`)
	readInt(&c, &res.WinnerCount)
	c.lit(`,"stable_since":`)
	readInt(&c, &res.StableSince)
	c.lit(`,"seed":`)
	readInt(&c, &res.Seed)
	if c.opt(`,"steps":`) {
		readInt(&c, &res.Steps)
	}
	if c.opt(`,"parallel_time":`) {
		c.float(&res.ParallelTime)
	}
	if c.opt(`,"dissenters":`) {
		readInt(&c, &res.Dissenters)
	}
	if c.opt(`,"timing":`) {
		if res.Timing == nil {
			res.Timing = new(RunTiming)
		}
		res.Timing.parse(&c)
	}
	if !c.lit("}") {
		return -1
	}
	return c.i
}

// parse reads, at c, a timing written as Result.AppendJSON writes one.
func (t *RunTiming) parse(c *cursor) {
	c.lit(`{"queue_wait_seconds":`)
	c.float(&t.QueueWaitSeconds)
	c.lit(`,"run_seconds":`)
	c.float(&t.RunSeconds)
	c.lit(`,"total_seconds":`)
	c.float(&t.TotalSeconds)
	c.lit(`,"records_emitted":`)
	readInt(c, &t.RecordsEmitted)
	if c.opt(`,"records_truncated":`) {
		readInt(c, &t.RecordsTruncated)
	}
	if c.opt(`,"rounds_per_sec":`) {
		c.float(&t.RoundsPerSec)
	}
	c.lit("}")
}

// cursor reads data from i on as the encoders write it: a literal, then a
// value in the form the encoder writes it. The first read that fails
// clears ok, and every read after it does nothing, so a chain of reads is
// checked once, at its end; i is then wherever the failed read left it.
type cursor struct {
	data []byte
	i    int
	ok   bool
}

// lit reads the literal s.
func (c *cursor) lit(s string) bool {
	if c.ok = c.ok && len(c.data)-c.i >= len(s) && string(c.data[c.i:c.i+len(s)]) == s; c.ok {
		c.i += len(s)
	}
	return c.ok
}

// opt reads the literal s if it comes next, and reports whether it did;
// if it does not, c stays as it was.
func (c *cursor) opt(s string) bool {
	if c.ok && len(c.data)-c.i >= len(s) && string(c.data[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// str reads a plain string (see PlainString) into dst.
func (c *cursor) str(dst *string) {
	if !c.ok {
		return
	}
	end, escaped := stringEnd(c.data, c.i)
	if c.ok = end >= 0 && !escaped && plainText(c.data[c.i+1:end-1]); c.ok {
		*dst = string(c.data[c.i+1 : end-1])
		c.i = end
	}
}

// float reads a JSON number that fits a float64 into dst.
func (c *cursor) float(dst *float64) {
	if !c.ok {
		return
	}
	end := numberEnd(c.data, c.i)
	if c.ok = end >= 0; c.ok {
		f, err := strconv.ParseFloat(string(c.data[c.i:end]), 64)
		if c.ok = err == nil; c.ok {
			*dst, c.i = f, end
		}
	}
}

// readInt reads an integer written as the encoders write one, a count
// (see countAt) with a '-' before it if negative, that fits T into dst.
func readInt[T int | int64 | uint64](c *cursor, dst *T) {
	if !c.ok {
		return
	}
	i := c.i
	neg := i < len(c.data) && c.data[i] == '-'
	if neg {
		i++
	}
	n, end, ok := countAt(c.data, i)
	v := T(n)
	if neg {
		// T is signed (^T(0) < 0), and -n is at least its minimum.
		v = -v
		ok = ok && ^T(0) < 0 && v <= 0 && uint64(-v) == n
	} else {
		ok = ok && fits[T](n)
	}
	if c.ok = ok; ok {
		*dst, c.i = v, end
	}
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
