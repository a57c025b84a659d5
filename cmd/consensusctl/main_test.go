package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/engine"
	"repro/service"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadSpecsPrettyPrinted(t *testing.T) {
	specs, err := readSpecs(writeTemp(t, `{
  "init": {"kind": "twovalue", "n": 100},
  "rule": {"name": "median"},
  "seed": 7
}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Seed != 7 {
		t.Fatalf("bad parse: %+v", specs)
	}
	if p := specs[0].Payload.(*service.MedianSpec); p.Rule.Name != "median" {
		t.Fatalf("bad payload: %+v", p)
	}
}

func TestReadSpecsNDJSONRunRecords(t *testing.T) {
	specs, err := readSpecs(writeTemp(t,
		`{"spec":{"init":{"kind":"twovalue","n":10},"rule":{"name":"median"},"seed":1},"spec_hash":"abc","result":{"rounds":3,"reason":"consensus","winner":1,"winner_count":10,"stable_since":3,"seed":1}}
{"init":{"kind":"twovalue","n":20},"rule":{"name":"voter"},"seed":2}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs, want 2", len(specs))
	}
	if p := specs[0].Payload.(*service.MedianSpec); p.Init.N != 10 || p.Rule.Name != "median" {
		t.Fatalf("run record wrapper not unwrapped: %+v", p)
	}
	if p := specs[1].Payload.(*service.MedianSpec); p.Init.N != 20 || p.Rule.Name != "voter" {
		t.Fatalf("bare spec line mis-parsed: %+v", p)
	}
}

func TestReadSpecsErrors(t *testing.T) {
	if _, err := readSpecs(writeTemp(t, "")); err == nil {
		t.Fatal("empty file must error")
	}
	if _, err := readSpecs(writeTemp(t, "{not json")); err == nil {
		t.Fatal("bad JSON must error")
	}
}

func TestReadSpecsRejectsUnknownFields(t *testing.T) {
	// A typo'd field must fail loudly, not be dropped and submitted clean.
	_, err := readSpecs(writeTemp(t,
		`{"init":{"kind":"twovalue","n":100},"rule":{"name":"median"},"maxrounds":500}`))
	if err == nil {
		t.Fatal("misspelled field must be rejected")
	}
}

func TestReadSpecsKindedRecords(t *testing.T) {
	// multidim, robust and gossip specs have no median payload; the
	// {spec, spec_hash, result} run record wrapper must still be
	// recognized, and bare kinded specs parse through the registry codec.
	specs, err := readSpecs(writeTemp(t,
		`{"spec":{"kind":"multidim","seed":1,"init":{"kind":"distinct","n":10,"d":2}},"spec_hash":"abc","result":{"rounds":3,"reason":"consensus","winner":0,"winner_count":10,"stable_since":0,"seed":1}}
{"kind":"robust","init":{"kind":"twovalue","n":20},"loss_prob":0.1,"crashes":2}
{"kind":"gossip","init":{"kind":"twovalue","n":20},"selector":"drop-value:1"}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	if p := specs[0].Payload.(*service.MultidimSpec); specs[0].Kind != "multidim" || p.Init.N != 10 {
		t.Fatalf("kinded run record wrapper not unwrapped: %+v", specs[0])
	}
	if p := specs[1].Payload.(*service.RobustSpec); specs[1].Kind != "robust" || p.Crashes != 2 {
		t.Fatalf("bare robust spec mis-parsed: %+v", specs[1])
	}
	if p := specs[2].Payload.(*service.GossipSpec); specs[2].Kind != "gossip" || p.Selector != "drop-value:1" {
		t.Fatalf("bare gossip spec mis-parsed: %+v", specs[2])
	}
}

func TestAxisFlags(t *testing.T) {
	var axes axisFlags
	if err := axes.Set("n=1e3,2e3"); err != nil {
		t.Fatal(err)
	}
	if err := axes.Set("seed=1,2,3"); err != nil {
		t.Fatal(err)
	}
	if len(axes) != 2 || axes[0].Param != "n" || len(axes[0].Values) != 2 ||
		axes[0].Values[1] != 2000 || axes[1].Param != "seed" || len(axes[1].Values) != 3 {
		t.Fatalf("bad axes: %+v", axes)
	}
	for _, bad := range []string{"", "n", "n=", "=1,2", "n=x"} {
		var a axisFlags
		if err := a.Set(bad); err == nil {
			t.Errorf("Set(%q) must error", bad)
		}
	}
}

func TestAxisFlagsNGrid(t *testing.T) {
	// An n grid in scientific notation; values may carry spaces after the
	// commas, and an empty value is an error.
	var ns axisFlags
	if err := ns.Set("n=1e3, 1e4,100000"); err != nil {
		t.Fatal(err)
	}
	if v := ns[0].Values; len(ns) != 1 || len(v) != 3 || v[0] != 1000 || v[1] != 10000 || v[2] != 100000 {
		t.Fatalf("bad n axis: %+v", ns)
	}
	for _, bad := range []string{"n=1e3,,1e4", "n=1e3,x"} {
		var a axisFlags
		if err := a.Set(bad); err == nil {
			t.Errorf("Set(%q) must error", bad)
		}
	}
}

func TestDeriveFlags(t *testing.T) {
	var d deriveFlags
	for _, s := range []string{"almost_slack=3*sqrt(n)", "window = log2(n)", "max_rounds=0.5*linear(n)"} {
		if err := d.Set(s); err != nil {
			t.Fatalf("Set(%q): %v", s, err)
		}
	}
	want := []service.DeriveRule{
		{Param: "almost_slack", From: "n", Func: "sqrt", Factor: 3},
		{Param: "window", From: "n", Func: "log2"},
		{Param: "max_rounds", From: "n", Func: "linear", Factor: 0.5},
	}
	if len(d) != len(want) {
		t.Fatalf("got %d rules, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, d[i], want[i])
		}
	}
	for _, bad := range []string{"", "almost_slack", "almost_slack=", "=sqrt(n)", "almost_slack=3*n",
		"almost_slack=sqrt(n", "almost_slack=x*sqrt(n)", "almost_slack=3*(n)", "almost_slack=3*sqrt()"} {
		var r deriveFlags
		if err := r.Set(bad); err == nil {
			t.Errorf("Set(%q) must error", bad)
		}
	}
}

func TestSpecFlagKinds(t *testing.T) {
	// Each kind builds a valid spec from defaults, with the family
	// payload populated and foreign fields left out.
	for _, kind := range []string{"median", "gossip", "multidim", "robust", "exact"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		sf := addSpecFlags(fs)
		if err := fs.Parse([]string{"-kind", kind, "-n", "100"}); err != nil {
			t.Fatal(err)
		}
		spec, err := sf.spec(nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: built spec invalid: %v", kind, err)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := addSpecFlags(fs)
	if err := fs.Parse([]string{"-kind", "warp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.spec(nil); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestSpecFlagsRejectForeignKindFlags(t *testing.T) {
	// A flag another kind owns must error, not silently drop — e.g.
	// -loss on a median submit would otherwise run a fault-free
	// simulation while the user believes faults were injected.
	cases := [][]string{
		{"-loss", "0.1"},                         // robust flag, median kind
		{"-crashes", "5"},                        // robust flag, median kind
		{"-kind", "multidim", "-rule", "voter"},  // median flag, multidim kind
		{"-kind", "robust", "-d", "3"},           // multidim flag, robust kind
		{"-kind", "robust", "-engine", "gossip"}, // median flag, robust kind
		{"-kind", "multidim", "-mode", "silent"}, // robust flag, multidim kind
	}
	for _, args := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		sf := addSpecFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.spec(nil); err == nil {
			t.Errorf("args %v must be rejected", args)
		}
	}
	// Flags the kind owns (and shared flags) still pass.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := addSpecFlags(fs)
	if err := fs.Parse([]string{"-kind", "multidim", "-adversary", "noise", "-t", "2", "-n", "50"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.spec(nil); err != nil {
		t.Fatalf("multidim-owned flags rejected: %v", err)
	}
}

func TestGossipFlags(t *testing.T) {
	// The gossip kind's flag surface follows its descriptor: selector and
	// cap-factor are gossip-owned, median's engine flag is rejected.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := addSpecFlags(fs)
	if err := fs.Parse([]string{"-kind", "gossip", "-n", "100", "-selector", "drop-value:2", "-cap-factor", "0.5", "-rule", "median"}); err != nil {
		t.Fatal(err)
	}
	spec, err := sf.spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("gossip flag spec invalid: %v", err)
	}
	p := spec.Payload.(*service.GossipSpec)
	if p.Selector != "drop-value:2" || p.CapFactor != 0.5 {
		t.Fatalf("gossip flags not applied: %+v", p)
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	sf = addSpecFlags(fs)
	if err := fs.Parse([]string{"-kind", "gossip", "-engine", "ball"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.spec(nil); err == nil {
		t.Fatal("-engine must be rejected for kind gossip")
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	sf = addSpecFlags(fs)
	if err := fs.Parse([]string{"-selector", "fair"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.spec(nil); err == nil {
		t.Fatal("-selector must be rejected for kind median")
	}
}

func TestExactFlags(t *testing.T) {
	// The exact kind's flag surface: -n/-init/-start map onto its bare
	// descriptor parameters, everything simulation-specific is foreign.
	sf := parseSpecFlags(t, "-kind", "exact", "-n", "60", "-start", "20")
	spec, err := sf.spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("exact flag spec invalid: %v", err)
	}
	p := spec.Payload.(*service.ExactSpec)
	if p.N != 60 || p.Start != 20 {
		t.Fatalf("exact flags not applied: %+v", p)
	}
	// -start belongs to the exact kind only.
	sf = parseSpecFlags(t, "-start", "20")
	if _, err := sf.spec(nil); err == nil {
		t.Fatal("-start must be rejected for kind median")
	}
	// Values are validated against the exact descriptor's bare params:
	// -init against its enum, -n against its O(n³) bound.
	sf = parseSpecFlags(t, "-kind", "exact", "-init", "gaussian")
	if _, err := sf.spec(nil); err == nil {
		t.Fatal("-init gaussian must be rejected for kind exact")
	}
	sf = parseSpecFlags(t, "-kind", "exact", "-n", "5000")
	if _, err := sf.spec(nil); err == nil {
		t.Fatal("-n above the exact kind's bound must be rejected")
	}
	// Simulation flags stay foreign.
	sf = parseSpecFlags(t, "-kind", "exact", "-rule", "voter")
	if _, err := sf.spec(nil); err == nil {
		t.Fatal("-rule must be rejected for kind exact")
	}
}

// parseSpecFlags builds a specFlags over freshly parsed args.
func parseSpecFlags(t *testing.T, args ...string) *specFlags {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := addSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestFlagValueValidationLocal(t *testing.T) {
	// With no reachable server, flag values are validated against the
	// local registry's descriptors: enum and bound violations surface as
	// descriptor-sourced client errors, never as a server 400.
	bad := []struct {
		args []string
		want string // substring the error must carry
	}{
		{[]string{"-kind", "multidim", "-engine", "warp"}, "enum"},
		{[]string{"-kind", "multidim", "-d", "0"}, "minimum"},
		{[]string{"-kind", "multidim", "-n", "0"}, "minimum"},
		{[]string{"-kind", "multidim", "-init", "twovalue"}, "enum"}, // scalar init kind on multidim
		{[]string{"-kind", "robust", "-mode", "quantum"}, "enum"},
		{[]string{"-kind", "robust", "-loss", "1.5"}, "maximum"},
		{[]string{"-kind", "robust", "-crashes", "-1"}, "minimum"},
		{[]string{"-engine", "warp"}, "enum"}, // median kind default
		{[]string{"-timing", "sideways"}, "enum"},
	}
	for _, c := range bad {
		sf := parseSpecFlags(t, c.args...)
		_, err := sf.spec(nil)
		if err == nil {
			t.Errorf("args %v must be rejected", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "descriptor") {
			t.Errorf("args %v: error %q must name the descriptor and the %s violation", c.args, err, c.want)
		}
	}
	// Legal values (including the "none" adversary spelling and template
	// selectors with no enum) still pass.
	good := [][]string{
		{"-kind", "multidim", "-engine", "count", "-d", "2", "-n", "64"},
		{"-kind", "multidim", "-engine", "auto"},
		{"-adversary", "none"},
		{"-kind", "gossip", "-selector", "drop-value:3"},
		{"-kind", "robust", "-mode", "silent", "-loss", "0.5"},
	}
	for _, args := range good {
		sf := parseSpecFlags(t, args...)
		if _, err := sf.spec(nil); err != nil {
			t.Errorf("args %v: unexpected error %v", args, err)
		}
	}
}

func TestMultidimEngineFlagApplied(t *testing.T) {
	// The validated -engine value must actually land in the payload: a
	// dropped field would silently submit engine=auto (and, since the
	// engine is part of the cache key, alias distinct runs in the cache).
	sf := parseSpecFlags(t, "-kind", "multidim", "-engine", "count", "-n", "64")
	spec, err := sf.spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := spec.Payload.(*service.MultidimSpec); p.Engine != "count" {
		t.Fatalf("-engine count not applied to the multidim payload: %+v", p)
	}
}

// engineDoc serves a /v1/engines document and counts run submissions, so
// tests can prove validation happened client-side against the *server's*
// descriptors.
func engineDoc(t *testing.T, doctor func([]engine.Descriptor) []engine.Descriptor) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var submits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/engines", func(w http.ResponseWriter, r *http.Request) {
		ds := engine.Descriptors()
		if doctor != nil {
			ds = doctor(ds)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"engines": ds})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"r-1","status":"done"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &submits
}

func TestFlagValueValidationUsesServerDescriptors(t *testing.T) {
	// The server's /v1/engines document, not the local registry, is the
	// validation source when the server answers: a multidim descriptor
	// doctored to drop "count" from the engine enum must reject -engine
	// count even though the local registry allows it — and the bad submit
	// must never reach the server.
	ts, submits := engineDoc(t, func(ds []engine.Descriptor) []engine.Descriptor {
		for i := range ds {
			if ds[i].Kind != "multidim" {
				continue
			}
			for j := range ds[i].Params {
				if ds[i].Params[j].Name == "engine" {
					ds[i].Params[j].Enum = []string{"auto", "process"}
				}
			}
		}
		return ds
	})
	err := runSubmit([]string{"-server", ts.URL, "-kind", "multidim", "-engine", "count"})
	if err == nil || !strings.Contains(err.Error(), "enum") || !strings.Contains(err.Error(), "descriptor") {
		t.Fatalf("doctored server enum not enforced: %v", err)
	}
	if n := submits.Load(); n != 0 {
		t.Fatalf("invalid spec reached the server (%d submits)", n)
	}
	// A value the server's document allows goes through to submission.
	if err := runSubmit([]string{"-server", ts.URL, "-kind", "multidim", "-engine", "process"}); err != nil {
		t.Fatalf("valid submit failed: %v", err)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("valid spec not submitted (%d submits)", n)
	}
}

func TestFlagValueValidationServerUnknownKind(t *testing.T) {
	// A kind the server does not register is rejected with a pointer at
	// the discovery document, even when the local registry knows it.
	ts, submits := engineDoc(t, func(ds []engine.Descriptor) []engine.Descriptor {
		out := ds[:0]
		for _, d := range ds {
			if d.Kind != "multidim" {
				out = append(out, d)
			}
		}
		return out
	})
	err := runSubmit([]string{"-server", ts.URL, "-kind", "multidim"})
	if err == nil || !strings.Contains(err.Error(), "not registered on the server") {
		t.Fatalf("server-unknown kind: %v", err)
	}
	if n := submits.Load(); n != 0 {
		t.Fatalf("unknown-kind spec reached the server (%d submits)", n)
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSubmitLocal: submit -local runs the spec on an in-process service,
// with no daemon, and prints the finished job.
func TestSubmitLocal(t *testing.T) {
	out := captureStdout(t, func() error {
		return runSubmit([]string{"-local", "-n", "2000", "-wait"})
	})
	var v service.JobView
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatalf("output %q: %v", out, err)
	}
	if v.Status != service.StatusDone || v.Result == nil || v.Result.WinnerCount != 2000 {
		t.Fatalf("submit -local did not print a done result:\n%s", out)
	}
}

// batchRecords runs batch with args and decodes its NDJSON output.
func batchRecords(t *testing.T, args ...string) ([]service.BatchCellRecord, []byte) {
	t.Helper()
	out := captureStdout(t, func() error { return runBatch(args) })
	var recs []service.BatchCellRecord
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var rec service.BatchCellRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs, out
}

// TestBatchLocal: batch -local streams one finished record per cell, in
// cell order. Cells report results, not round streams, so the in-process
// service keeps one round record per run instead of all R+1.
func TestBatchLocal(t *testing.T) {
	recs, out := batchRecords(t, "-local", "-n", "500", "-axis", "seed=1,2")
	if len(recs) != 2 {
		t.Fatalf("%d cells, want 2:\n%s", len(recs), out)
	}
	for i, rec := range recs {
		if rec.Index != i || rec.Status != service.StatusDone || rec.Result == nil || rec.Result.Timing == nil {
			t.Fatalf("cell %d: %+v", i, rec)
		}
		if tm := rec.Result.Timing; tm.RecordsEmitted != 1 || tm.RecordsTruncated != rec.Result.Rounds {
			t.Fatalf("cell %d: %d round records kept, %d truncated over %d rounds; want 1 kept",
				i, tm.RecordsEmitted, tm.RecordsTruncated, rec.Result.Rounds)
		}
	}
}

func TestBuildFlagSpecOmitsIrrelevantFields(t *testing.T) {
	// Hash stability: init kinds that ignore m and seed must not embed
	// them, or equal runs would get distinct canonical hashes.
	spec, err := parseSpecFlags(t, "-n", "5", "-m", "7", "-seed", "3").spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if init := spec.Payload.(*service.MedianSpec).Init; init.Kind != "twovalue" || init.M != 0 || init.Seed != 0 {
		t.Fatalf("twovalue init embeds m or seed: %+v", init)
	}
	spec, err = parseSpecFlags(t, "-n", "5", "-m", "7", "-init", "evenblocks").spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if init := spec.Payload.(*service.MedianSpec).Init; init.M != 7 || init.Seed != 0 {
		t.Fatalf("evenblocks init must keep m and drop seed: %+v", init)
	}
	// decodeSpec falls back to a bare spec when the line is no record.
	spec, err = decodeSpec([]byte(`{"init":{"kind":"twovalue","n":5},"rule":{"name":"median"}}`))
	if err != nil {
		t.Fatalf("decodeSpec: %v", err)
	}
	if p := spec.Payload.(*service.MedianSpec); p.Init.N != 5 {
		t.Fatalf("decodeSpec: %+v", p)
	}
}

// TestReadSpecsBatchOutput: batch output is submit -spec input — every
// line unwraps to its cell's spec, seed included.
func TestReadSpecsBatchOutput(t *testing.T) {
	recs, out := batchRecords(t, "-local", "-n", "500", "-axis", "seed=1,2")
	specs, err := readSpecs(writeTemp(t, string(out)))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(recs) {
		t.Fatalf("%d specs from %d records", len(specs), len(recs))
	}
	for i, spec := range specs {
		if spec.Seed != uint64(i+1) {
			t.Fatalf("spec %d seed %d, want %d", i, spec.Seed, i+1)
		}
		if h, err := spec.Hash(); err != nil || h != recs[i].SpecHash {
			t.Fatalf("spec %d hash %s (%v), want the cell's %s", i, h, err, recs[i].SpecHash)
		}
	}
}

// TestBatchDerive: -derive fills the request's derive rules; the
// adversarial slack almost_slack=3*sqrt(n) is ⌊3·√n⌋ per cell.
func TestBatchDerive(t *testing.T) {
	recs, _ := batchRecords(t, "-local", "-seed", "1", "-rounds", "20", "-adversary", "median-splitter",
		"-axis", "n=1e3,1e4", "-derive", "almost_slack=3*sqrt(n)")
	want := []int{94, 300}
	if len(recs) != len(want) {
		t.Fatalf("%d cells, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if slack := rec.Spec.Payload.(*service.MedianSpec).AlmostSlack; slack != want[i] {
			t.Fatalf("cell %d (n=%v): slack %d, want %d", i, rec.Params, slack, want[i])
		}
	}
}

// TestBatchFormatCSV: -format csv folds each grid point's repetitions
// into one row, in grid order, and -fit appends the growth-law fit.
func TestBatchFormatCSV(t *testing.T) {
	out := captureStdout(t, func() error {
		return runBatch([]string{"-local", "-seed", "1", "-rounds", "1000", "-reps", "3",
			"-axis", "n=100,200", "-format", "csv", "-fit", "logn"})
	})
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header, 2 rows and a fit line:\n%s", out)
	}
	if lines[0] != "n,mean,stderr,median,min,max,reps" {
		t.Fatalf("header %q", lines[0])
	}
	for i, n := range []string{"100", "200"} {
		row := strings.Split(lines[i+1], ",")
		if row[0] != n || row[len(row)-1] != "3" {
			t.Fatalf("row %d = %q, want n=%s with 3 reps", i, lines[i+1], n)
		}
	}
	if !strings.HasPrefix(lines[3], "fit: a*ln(n)+b: ") {
		t.Fatalf("fit line %q", lines[3])
	}
}

// TestBatchRejectsBadOutputFlags: unknown -format or -fit values, and a
// fit on NDJSON output, fail before the client contacts any server; an
// unknown derive func fails at batch expansion, before any cell runs.
func TestBatchRejectsBadOutputFlags(t *testing.T) {
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, `{"error":"unexpected"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	for _, args := range [][]string{
		{"-format", "yaml"},
		{"-format", "table", "-fit", "cubic"},
		{"-fit", "logn"},
		{"-format", "ndjson", "-fit", "linear"},
	} {
		args = append([]string{"-server", ts.URL, "-axis", "n=1e3,1e4"}, args...)
		if err := runBatch(args); err == nil {
			t.Errorf("args %v must be rejected", args)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("rejected flags reached the server (%d requests)", n)
	}

	svc, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	live := httptest.NewServer(svc.Handler())
	defer live.Close()
	err = runBatch([]string{"-server", live.URL, "-axis", "n=1e3,1e4", "-derive", "almost_slack=3*cube(n)"})
	if err == nil || !strings.Contains(err.Error(), "cube") {
		t.Fatalf("unknown derive func: %v", err)
	}
	if m := svc.Metrics(); m.BatchesRun != 0 || m.JobsSubmitted != 0 {
		t.Fatalf("rejected batch ran: %d batches, %d jobs", m.BatchesRun, m.JobsSubmitted)
	}
}
