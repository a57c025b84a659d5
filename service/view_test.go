package service

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/engine"
)

// refView and refRecord mirror JobView and engine.Record with no methods:
// encoding/json on them is how views and stream lines were written and
// read before the view codec, and the reference FuzzViewCodec checks it
// against. A view's result, timing and the rest of engine.Result carry no
// JSON methods of their own (checkMethodFree), so the mirror is
// method-free all the way down to the spec, whose own codec
// FuzzSpecCodec checks.
type (
	refView   JobView
	refRecord engine.Record
)

// checkMethodFree fails if encoding/json would call a method of a type
// refView holds besides the spec and time.Time.
func checkMethodFree(tb testing.TB) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[engine.Result](), reflect.TypeFor[engine.RunTiming](),
		reflect.TypeFor[engine.MessageStats](), reflect.TypeFor[engine.ExactStats](),
		reflect.TypeFor[Status](),
	} {
		for _, iface := range []reflect.Type{
			reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
			reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
		} {
			if reflect.PointerTo(typ).Implements(iface) {
				tb.Fatalf("%v implements %v: mirror it for the view codec's reference", typ, iface)
			}
		}
	}
}

// checkViewEncoding fails unless v.AppendJSON writes what encoding/json
// writes for v, or both fail with the same error and AppendJSON returns
// its buffer as passed.
func checkViewEncoding(t *testing.T, v *JobView) {
	t.Helper()
	const prefix = "prefix"
	got, gotErr := v.AppendJSON([]byte(prefix))
	want, wantErr := json.Marshal((*refView)(v))
	checkEncoding(t, prefix, got, want, gotErr, wantErr)
}

// checkRecordEncoding is checkViewEncoding for a stream line.
func checkRecordEncoding(t *testing.T, rec *engine.Record) {
	t.Helper()
	const prefix = "{}\n"
	got, gotErr := rec.AppendJSON([]byte(prefix))
	want, wantErr := json.Marshal((*refRecord)(rec))
	checkEncoding(t, prefix, got, want, gotErr, wantErr)
}

func checkEncoding(t *testing.T, prefix string, got, want []byte, gotErr, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("encode: got error %v, encoding/json %v", gotErr, wantErr)
		}
		if string(got) != prefix {
			t.Fatalf("a failed encode returned %q, not its buffer as passed", got)
		}
		return
	}
	if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("encode:\n got           %s\n encoding/json %s", got, want)
	}
}

// perturb writes x into v's floats and times derived from sec into its
// timestamps, so that the encoders meet values no decoded view holds:
// NaN, ±Inf, exponent forms and years past 9999.
func perturb(v *JobView, x float64, sec int64) {
	v.Created = time.Unix(sec, 0).UTC()
	if v.Started != nil {
		at := time.Unix(sec/2, sec%1e9).In(time.FixedZone("", int(sec%100_000)))
		v.Started = &at
	}
	if r := v.Result; r != nil {
		r.ParallelTime = x
		if r.Timing != nil {
			r.Timing.RunSeconds = x
			r.Timing.RoundsPerSec = -x
		}
		if r.Exact != nil {
			r.Exact.AbsorbedByEnd = x
		}
	}
}

// FuzzViewCodec checks the view codec against encoding/json on refView
// and refRecord. On any bytes JobView.UnmarshalJSON and encoding/json
// accept or reject alike, and the views they decode are deeply equal.
// AppendJSON writes what encoding/json writes for that view, and for it
// with x and sec written into its floats and times, or returns the same
// error; Record.AppendJSON likewise for the bytes decoded as a record.
func FuzzViewCodec(f *testing.F) {
	checkMethodFree(f)
	for _, v := range exampleViews(f) {
		data, err := json.Marshal((*refView)(&v))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 0.0, int64(0))
	}
	const spec = `"spec":{"kind":"exact","n":24,"start":6,"v":1}`
	for _, s := range []string{
		`{"id":"r-1","status":"done","cache_hit":false,"records":0,"created":"2026-01-02T03:04:05Z",` + spec + `}`,
		// Members written null.
		`{"id":null,"result":null,"error":null,"started":null,"finished":null,"created":null,"spec":null}`,
		`{"result":{"timing":null,"reason":null},"cache_hit":null,"records":null}`,
		// Repeated and case-variant keys.
		`{"id":"a","id":"b","result":{"rounds":1,"timing":{"run_seconds":1}},"result":{"winner":2,"timing":{"total_seconds":2}}}`,
		`{"ID":"x","Status":"done","CACHE_HIT":true,"Spec":{"kind":"exact","n":24,"start":6},"\u0069d":"y"}`,
		`{"started":"2026-01-02T03:04:05Z","started":"2027-01-02T03:04:05+01:00",` + spec + `,` + spec + `}`,
		// Strings that are HTML-escaped, hold escapes or are not UTF-8.
		`{"error":"<a href=\"x\">&amp;</a>","request_id":"\u003c\u2028\ud800","status":"d\u006fne"}`,
		"{\"error\":\"\xff\xfe bad \xc3\",\"id\":\"tab\\there\"}",
		// Values encoding/json rejects, or decodes only its own way.
		`{"created":"10000-01-01T00:00:00Z"}`,
		`{"created":"2026-01-02T03:04:05\u005a"}`,
		`{"records":1.5}`, `{"records":-0}`, `{"cache_hit":"true"}`, `{"result":{"seed":-1}}`,
		`{"result":{"parallel_time":1e400}}`, `{"result":{"messages":{"requests_sent":1}}}`,
		// Optional result members at their edges: empty, false, zero.
		`{"result":{"winner_point":[],"tuple_valid":false,"coord_valid":null,"steps":0,"parallel_time":-0,"dissenters":0,"exact":null}}`,
		`{"spec":{"kind":"nope"}}`, `{"spec":{"kind":"exact","v":2}}`,
		// Stream lines.
		`{"round":3,"n":9,"support":2,"leader":-1,"leader_count":5,"leader_point":[1,-2],"absorbed":0.25}`,
		`{"round":0,"leader_point":[]}`, `{"leader_point":null,"absorbed":1e-9}`,
		`{"id":"a"} x`, `{"id":"a",}`, `[]`, `"x"`, `null`, ``,
	} {
		f.Add([]byte(s), 0.0, int64(0))
	}
	for _, seed := range exactKnockOffs() {
		f.Add([]byte(seed), 0.0, int64(0))
	}
	year10000 := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	done := []byte(`{"id":"r-1","status":"done","cache_hit":true,"result":{"rounds":3,"reason":"consensus","winner":1,"winner_count":9,"stable_since":3,"seed":7,"exact":{"expected_rounds":1,"win_probability":0.5,"absorbed_by_end":1},"timing":{"queue_wait_seconds":0,"run_seconds":1,"total_seconds":1,"records_emitted":4}},"records":4,"created":"2026-01-02T03:04:05Z","started":"2026-01-02T03:04:05Z",` + spec + `}`)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-7, 1e21, 123.456} {
		f.Add(done, x, int64(1_700_000_000))
	}
	f.Add(done, 1.0, year10000)
	f.Add(done, 1.0, int64(-62_167_219_201)) // a second before year 0
	f.Add(done, 1.0, int64(86_399))          // a zone offset of nearly 24 hours

	f.Fuzz(func(t *testing.T, data []byte, x float64, sec int64) {
		var got JobView
		var want refView
		gotErr, wantErr := got.UnmarshalJSON(data), json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode of %q: got error %v, encoding/json %v", data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, JobView(want)) {
			t.Fatalf("decode of %q:\n got           %+v\n encoding/json %+v", data, got, JobView(want))
		}
		checkViewEncoding(t, &got)
		perturb(&got, x, sec)
		checkViewEncoding(t, &got)

		var rec refRecord
		if json.Unmarshal(data, &rec) == nil {
			checkRecordEncoding(t, (*engine.Record)(&rec))
			rec.Absorbed = x
			checkRecordEncoding(t, (*engine.Record)(&rec))
		}
	})
}

// exactView and exactLine are a hit view and a stream line as the serve
// benchmark's hit workload receives them: every member in the shape the
// decoders' exact paths read.
const (
	exactView = `{"id":"r-1","spec_hash":"7ce36b64","status":"done","cache_hit":true,` +
		`"result":{"rounds":17,"reason":"consensus","winner":9,"winner_count":5000,"stable_since":17,"seed":2,` +
		`"timing":{"queue_wait_seconds":0.000027207,"run_seconds":0.000068948,"total_seconds":0.000096155,"records_emitted":18,"rounds_per_sec":246562.62690723443}},` +
		`"request_id":"5c0ffee15bad1dea","records":18,"created":"2026-10-20T01:52:06.097172392Z","started":"2026-10-20T01:52:06.097199601Z","finished":"2026-10-20T01:52:06.097268548Z",` +
		`"spec":{"engine":"auto","init":{"kind":"uniform","n":5000,"m":16,"seed":2},"kind":"median","rule":{"name":"median"},"seed":2,"timing":"before-round","v":1}}`
	exactLine = `{"round":1,"n":5000,"support":16,"leader":9,"leader_count":503}`
)

// exactKnockOffs returns exactView and exactLine, and variants of them that
// knock the decoders' exact paths off at each member they read, or take
// them to the edge of what they read: keys out of order or escaped,
// members the exact paths do not read, counts with a leading zero, 19 or
// 20 digits or an exponent, negative counts and -0, -0 and exponents in
// floats, and names no descriptor lists.
func exactKnockOffs() []string {
	out := []string{exactView, exactLine}
	for _, c := range [][2]string{
		{`{"round":1,"n":5000,`, `{"n":5000,"round":1,`},
		{`{"round":1,`, `{"\u0072ound":1,`},
		{`"leader_count":503}`, `"leader_count":503,"absorbed":0.25}`},
		{`"leader_count":503}`, `"leader_count":503,"leader_point":[1,-2]}`},
		{`"support":16,`, `"support":016,`},
		{`"leader":9,"leader_count":503`, `"leader":-9,"leader_count":503`},
		{`"leader_count":503`, `"leader_count":1234567890123456789`},
		{`"round":1,`, `"round":-0,`},
		{`"leader":9,"leader_count":503`, `"leader":1E+2,"leader_count":503`},
		{`"rounds":17,"reason"`, `"reason":"consensus","rounds":17,"x"`},
		{`"reason":"consensus"`, `"re\u0061son":"consensus"`},
		{`"winner":9,`, `"winner":-9,`},
		{`"winner_count":5000,`, `"winner_count":05000,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":18446744073709551615,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":18446744073709551616,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":2,"steps":40,"parallel_time":-0,"dissenters":1,`},
		{`"stable_since":17,"seed":2,`, `"stable_since":17,"seed":2,"tuple_valid":true,`},
		{`"queue_wait_seconds":0.000027207`, `"queue_wait_seconds":-0`},
		{`"run_seconds":0.000068948`, `"run_seconds":1E+2`},
		{`"total_seconds":0.000096155`, `"total_seconds":.5`},
		{`"records_emitted":18,`, `"records_emitted":-18,`},
		{`"records_emitted":18,`, `"records_emitted":18,"records_truncated":2,`},
		{`"timing":{"queue_wait_seconds"`, `"t\u0069ming":{"queue_wait_seconds"`},
		{`"engine":"auto"`, `"engine":"warp"`},
		{`"init":{"kind":"uniform"`, `"init":{"kind":"blob"`},
		{`"rule":{"name":"median"}`, `"rule":{"name":"me\u0064ian"}`},
		{`"kind":"median"`, `"kind":"nope"`},
	} {
		for _, data := range []string{exactView, exactLine} {
			if strings.Contains(data, c[0]) {
				out = append(out, strings.Replace(data, c[0], c[1], 1))
			}
		}
	}
	return out
}

// exampleViews returns views of one run of each registered kind's
// Example in every status a job takes: queued, running, done, a cache
// hit, failed and cancelled.
func exampleViews(tb testing.TB) []JobView {
	created := time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC)
	started, finished := created.Add(15*time.Microsecond), created.Add(1200*time.Microsecond)
	var views []JobView
	for i, d := range engine.Descriptors() {
		var spec Spec
		raw := append([]byte(`{"kind":"`+d.Kind+`","seed":7,`), d.Example[1:]...)
		if err := json.Unmarshal(raw, &spec); err != nil {
			tb.Fatalf("%s example: %v", d.Kind, err)
		}
		spec, hash, err := spec.Admit(0)
		if err != nil {
			tb.Fatalf("%s example: %v", d.Kind, err)
		}
		var recs int
		res, err := Execute(spec, func(RoundRecord) { recs++ }, nil)
		if err != nil {
			tb.Fatalf("%s example: %v", d.Kind, err)
		}
		res.Timing = &engine.RunTiming{
			QueueWaitSeconds: 1.5e-5, RunSeconds: 0.000731, TotalSeconds: 0.0012,
			RecordsEmitted: recs, RecordsTruncated: i, RoundsPerSec: float64(res.Rounds) / 0.000731,
		}
		base := JobView{
			ID: fmt.Sprintf("r-%d", i+1), SpecHash: hash, RequestID: "req-" + d.Kind,
			Created: created, Spec: spec,
		}
		queued := base
		queued.Status = StatusQueued
		running := base
		running.Status, running.Records, running.Started = StatusRunning, recs/2, &started
		done := base
		done.Status, done.Result, done.Records, done.Truncated = StatusDone, &res, recs, i
		done.Started, done.Finished = &started, &finished
		hit := done
		hit.CacheHit, hit.RequestID = true, ""
		failed := running
		failed.Status, failed.Error, failed.Finished = StatusFailed, `engine: run panicked: "<&>"`, &finished
		cancelled := running
		cancelled.Status, cancelled.Error, cancelled.Finished = StatusCancelled, "cancelled while running", &finished
		views = append(views, queued, running, done, hit, failed, cancelled)
	}
	return views
}

// TestResponsesMatchEncodingJSON: the views the API returns (submit, get
// and cancel) and a done job's stream are byte for byte what encoding/json
// writes for them, newline-terminated as json.Encoder writes them.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	call := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, data)
		}
		return data
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// checkView fails unless body is what encoding/json writes for the
	// view it decodes to, and for want when given.
	checkView := func(body []byte, want *JobView) JobView {
		t.Helper()
		var v refView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, encode(&v)) {
			t.Fatalf("response %s is not encoding/json's %s", body, encode(&v))
		}
		if want != nil && !bytes.Equal(body, encode((*refView)(want))) {
			t.Fatalf("response %s is not encoding/json's %s", body, encode((*refView)(want)))
		}
		return JobView(v)
	}

	spec := `{"init":{"kind":"uniform","n":5000,"m":16},"rule":{"name":"median"},"seed":4242}`
	first := checkView(call(http.MethodPost, "/v1/runs", spec), nil)
	done := waitDone(t, s, first.ID)
	checkView(call(http.MethodGet, "/v1/runs/"+first.ID, ""), &done)
	hit := checkView(call(http.MethodPost, "/v1/runs", spec), nil)
	if !hit.CacheHit {
		t.Fatalf("resubmission is not a cache hit: %+v", hit)
	}
	hitView, err := s.Get(hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkView(call(http.MethodGet, "/v1/runs/"+hit.ID, ""), &hitView)

	recs, _, _, err := s.Records(first.ID, 0)
	if err != nil || len(recs) < 2 {
		t.Fatalf("records: %d, %v", len(recs), err)
	}
	var want []byte
	for _, rec := range recs {
		want = append(want, encode((*refRecord)(&rec))...)
	}
	if got := call(http.MethodGet, "/v1/runs/"+first.ID+"/stream", ""); !bytes.Equal(got, want) {
		t.Fatalf("stream:\n got           %s\n encoding/json %s", got, want)
	}

	blocker := checkView(call(http.MethodPost, "/v1/runs",
		`{"init":{"kind":"twovalue","n":4000},"rule":{"name":"voter"},"engine":"ball","seed":4,"max_rounds":1048576}`), nil)
	checkView(call(http.MethodDelete, "/v1/runs/"+blocker.ID, ""), nil)
	waitDone(t, s, blocker.ID)
}
