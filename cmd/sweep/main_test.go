package main

import (
	"testing"

	"repro/internal/experiment"
	"repro/service"
)

func TestParseNs(t *testing.T) {
	ns, err := parseNs("1e3, 1e4,100000")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1000, 10000, 100000}
	if len(ns) != 3 {
		t.Fatalf("%d sizes", len(ns))
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("ns[%d] = %v, want %v", i, ns[i], want[i])
		}
	}
	for _, bad := range []string{"", "x", "1", "-5", "1e3,,1e4"} {
		if _, err := parseNs(bad); err == nil {
			t.Fatalf("parseNs(%q) must error", bad)
		}
	}
}

func TestParseRule(t *testing.T) {
	for _, name := range []string{"median", "majority", "minimum", "maximum", "mean", "voter"} {
		r, err := parseRule(name)
		if err != nil || r.Name() != name {
			t.Fatalf("parseRule(%q): %v", name, err)
		}
	}
	if _, err := parseRule("kmedian2"); err == nil {
		t.Fatal("sweep does not expose kmedian; must error")
	}
}

func TestParseAdversary(t *testing.T) {
	if a, err := parseAdversary("none"); err != nil || a != nil {
		t.Fatal("none must parse to nil")
	}
	for _, name := range []string{"balancer", "noise", "splitter", "hider"} {
		a, err := parseAdversary(name)
		if err != nil || a == nil {
			t.Fatalf("parseAdversary(%q): %v", name, err)
		}
		if a.Budget(10000) != 100 {
			t.Fatalf("%s budget at n=10000: %d, want sqrt = 100", name, a.Budget(10000))
		}
	}
	if _, err := parseAdversary("reviver"); err == nil {
		t.Fatal("sweep does not expose reviver; must error")
	}
}

func TestParseInitClampsM(t *testing.T) {
	// m > n clamps to n; the blocks initialiser must still cover n balls.
	vals, err := parseInit("blocks", 5, 99, 1)
	if err != nil || len(vals) != 5 {
		t.Fatalf("clamp failed: %v %v", vals, err)
	}
	if _, err := parseInit("nonsense", 5, 2, 1); err == nil {
		t.Fatal("unknown init must error")
	}
}

func TestBatchRequestShapes(t *testing.T) {
	// Plain sweeps are a template + "n" axis (server-expandable).
	req, err := batchRequest([]float64{1000, 2000}, 2, "twovalue", "median", "none", 100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Specs) != 0 || len(req.Axes) != 1 || req.Axes[0].Param != "n" || req.Reps != 3 {
		t.Fatalf("plain sweep must be axis-mode: %+v", req)
	}
	// Adversarial sweeps derive the n-dependent slack server-side, riding
	// the same template+axis grid path as plain sweeps.
	req, err = batchRequest([]float64{10000}, 2, "twovalue", "median", "balancer", 100, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Specs) != 0 || len(req.Axes) != 1 || len(req.Derive) != 1 {
		t.Fatalf("adversarial sweep must be axis+derive mode: %+v", req)
	}
	if d := req.Derive[0]; d.Param != "almost_slack" || d.From != "n" || d.Func != "sqrt" || d.Factor != 3 {
		t.Fatalf("bad derive rule: %+v", d)
	}
	// Both shapes expand through the shared batch expansion; the derive
	// rule pins the per-cell slack to ⌊3·√n⌋.
	cells, err := service.ExpandBatch(req, service.BatchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if slack := c.Spec.Payload.(*service.MedianSpec).AlmostSlack; slack != 300 {
			t.Fatalf("cell slack %d, want 3*sqrt(10000) = 300", slack)
		}
	}
	// Pin the derive semantics at a non-perfect-square n too: the slack is
	// the adversary budget family Sqrt(3), i.e. ⌊3·√n⌋ — deliberately so,
	// replacing the old explicit-spec 3·⌊√n⌋ (⌊3·√1000⌋ = 94, not 93).
	req, err = batchRequest([]float64{1000}, 2, "twovalue", "median", "balancer", 100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells, err = service.ExpandBatch(req, service.BatchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if slack := cells[0].Spec.Payload.(*service.MedianSpec).AlmostSlack; slack != 94 {
		t.Fatalf("cell slack %d, want floor(3*sqrt(1000)) = 94", slack)
	}
}

// TestSummarizeGroupsReps: a local sweep streams reps consecutive records
// per grid point, which fold into one cell per n, in grid order.
func TestSummarizeGroupsReps(t *testing.T) {
	req, err := batchRequest([]float64{100, 200}, 2, "twovalue", "median", "none", 1000, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	records, err := run("", 2, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 {
		t.Fatalf("%d records, want 6", len(records))
	}
	cells, err := experiment.Cells(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Params[0] != 100 || cells[1].Params[0] != 200 {
		t.Fatalf("cells %+v, want n=100 then n=200", cells)
	}
	for i, c := range cells {
		if c.Summary.N != 3 {
			t.Fatalf("cell %d holds %d reps, want 3", i, c.Summary.N)
		}
		for r, rounds := range c.Raw {
			if rec := records[3*i+r]; rounds != float64(rec.Result.Rounds) || rec.Rep != r {
				t.Fatalf("cell %d rep %d: %v rounds, record %+v", i, r, rounds, rec)
			}
		}
	}
}
