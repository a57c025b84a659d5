package papereval

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/model"
	"repro/service"
)

// Tiny is an even smaller scale so the experiment definitions themselves are
// exercised inside the ordinary unit-test budget.
var tiny = Scale{
	Ns:        []float64{200, 400, 800},
	Ms:        []float64{2, 4, 8},
	Reps:      3,
	MaxRounds: 4000,
	Workers:   2,
}

func checkReport(t *testing.T, r Report) {
	t.Helper()
	if r.ID == "" || r.Claim == "" || r.Verdict == "" {
		t.Fatalf("incomplete report: %+v", r)
	}
	if len(r.Tables) == 0 {
		t.Fatalf("%s: no tables", r.ID)
	}
	for _, tab := range r.Tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table %q", r.ID, tab.Title)
		}
	}
	if strings.Contains(r.Verdict, "WARNING") {
		t.Fatalf("%s verdict: %s", r.ID, r.Verdict)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), r.ID) {
		t.Fatalf("render missing ID")
	}
}

func TestE1(t *testing.T)  { checkReport(t, E1Fig1TwoBins(tiny)) }
func TestE2(t *testing.T)  { checkReport(t, E2Fig1MBins(tiny)) }
func TestE3(t *testing.T)  { checkReport(t, E3Fig1AvgCase(tiny)) }
func TestE4(t *testing.T)  { checkReport(t, E4ConstantValues(tiny)) }
func TestE6(t *testing.T)  { checkReport(t, E6MinimumRuleAttack(tiny)) }
func TestE7(t *testing.T)  { checkReport(t, E7MeanVsMedianValidity(tiny)) }
func TestE8(t *testing.T)  { checkReport(t, E8Gravity(tiny)) }
func TestE9(t *testing.T)  { checkReport(t, E9Lemma15Drift(tiny)) }
func TestE10(t *testing.T) { checkReport(t, E10Lemma14CLT(tiny)) }
func TestE11(t *testing.T) { checkReport(t, E11Thm20Phases(tiny)) }
func TestE12(t *testing.T) { checkReport(t, E12GossipConformance(tiny)) }
func TestE13(t *testing.T) { checkReport(t, E13Lemma17Coupling(tiny)) }
func TestE14(t *testing.T) { checkReport(t, E14MarkovHitting(tiny)) }
func TestE15(t *testing.T) { checkReport(t, E15Lemma11LogLog(tiny)) }
func TestE16(t *testing.T) { checkReport(t, E16KChoicesAblation(tiny)) }
func TestE17(t *testing.T) { checkReport(t, E17GossipDrops(tiny)) }

func TestE5(t *testing.T) {
	// E5 needs a larger n for the lower-bound contrast but a short cap.
	s := tiny
	s.Ns = []float64{2000}
	s.MaxRounds = 600
	checkReport(t, E5LowerBound(s))
}

// E7's whole point: mean must fail validity in a majority of balanced runs.
func TestE7MeanActuallyInvalid(t *testing.T) {
	r := E7MeanVsMedianValidity(tiny)
	// Row order: median, mean. Parse "valid" counts.
	medianRow := r.Tables[0].Rows[0]
	meanRow := r.Tables[0].Rows[1]
	if medianRow[0] != "median" || meanRow[0] != "mean" {
		t.Fatalf("unexpected rows %v %v", medianRow, meanRow)
	}
	if medianRow[1] != medianRow[2] {
		t.Fatalf("median rule violated validity: %v", medianRow)
	}
	if meanRow[1] == meanRow[2] {
		t.Fatalf("mean rule never violated validity at this scale: %v", meanRow)
	}
}

// The coupled runner must reproduce the exact Lemma 17 image property.
func TestCoupledRunPointwise(t *testing.T) {
	fine := assign.AllDistinct(64)
	f := func(v model.Value) model.Value { return (v + 7) / 8 }
	coarse := assign.Coarsen(fine, f)
	fr, cr, pw := coupledRun(fine, coarse, f, 77, 5000)
	if !pw {
		t.Fatal("pointwise image property violated")
	}
	if cr > fr {
		t.Fatalf("coarse (%d) converged after fine (%d)", cr, fr)
	}
}

// TestSweepDeterministicAcrossWorkers: a sweep's cells depend on the batch
// alone — the local executor's worker count changes only the scheduling.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	req := service.BatchRequest{
		Template: service.Spec{Seed: 404, Payload: &service.MedianSpec{
			Init: service.InitSpec{Kind: "evenblocks"}, Rule: medianRule, Adversary: splitter(), Engine: "count"}},
		Axes:   []service.Axis{nAxis(tiny.Ns...), {Param: "m", Values: []float64{2, 3}}},
		Derive: []service.DeriveRule{slackRule},
	}
	one, four := tiny, tiny
	one.Workers, four.Workers = 1, 4
	a, b := one.sweep(req), four.sweep(req)
	if len(a) != 2*len(tiny.Ns) {
		t.Fatalf("%d cells, want %d", len(a), 2*len(tiny.Ns))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cells differ across worker counts:\n1 worker:  %+v\n4 workers: %+v", a, b)
	}
}

func TestAllTinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	s := tiny
	s.Ns = []float64{200, 400}
	s.Reps = 2
	s.MaxRounds = 600
	reports := All(s)
	if len(reports) != 20 {
		t.Fatalf("expected 20 reports, got %d", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if seen[r.ID] {
			t.Fatalf("duplicate report ID %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestE18(t *testing.T) { checkReport(t, E18MultidimFutureWork(tiny)) }

func TestE19(t *testing.T) { checkReport(t, E19ExactValidation(tiny)) }

func TestE20(t *testing.T) { checkReport(t, E20Robustness(tiny)) }
