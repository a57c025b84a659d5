package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/adversary"
	"repro/multidim"
)

func medianTemplate() Spec {
	return Spec{Kind: KindMedian, Seed: 1, Payload: &MedianSpec{
		Init: InitSpec{Kind: "twovalue"},
		Rule: RuleSpec{Name: "median"},
	}}
}

// medianPayload unwraps a cell's median payload.
func medianPayload(t *testing.T, s Spec) *MedianSpec {
	t.Helper()
	p, ok := s.Payload.(*MedianSpec)
	if !ok {
		t.Fatalf("payload is %T, want *MedianSpec", s.Payload)
	}
	return p
}

// TestExpandBatchGrid: a 2-axis grid expands as a cartesian product, last
// axis fastest, each cell canonical and hashed.
func TestExpandBatchGrid(t *testing.T) {
	req := BatchRequest{
		Template: medianTemplate(),
		Axes: []Axis{
			{Param: "n", Values: []float64{100, 200}},
			{Param: "seed", Values: []float64{1, 2, 3}},
		},
	}
	cells, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	wantParams := [][]float64{{100, 1}, {100, 2}, {100, 3}, {200, 1}, {200, 2}, {200, 3}}
	seen := map[string]bool{}
	for i, c := range cells {
		if c.Index != i || c.Rep != 0 {
			t.Fatalf("cell %d has index %d rep %d", i, c.Index, c.Rep)
		}
		if !reflect.DeepEqual(c.Params, wantParams[i]) {
			t.Fatalf("cell %d params %v, want %v", i, c.Params, wantParams[i])
		}
		if medianPayload(t, c.Spec).Init.N != int(wantParams[i][0]) || c.Spec.Seed != uint64(wantParams[i][1]) {
			t.Fatalf("cell %d spec not patched: %+v", i, c.Spec)
		}
		if c.SpecHash == "" || seen[c.SpecHash] {
			t.Fatalf("cell %d hash missing or duplicated", i)
		}
		// The expander's fast-path hash must agree with Spec.Hash — they
		// are the same cache key.
		if h, err := c.Spec.Hash(); err != nil || h != c.SpecHash {
			t.Fatalf("cell %d fast-path hash %s != Spec.Hash %s (%v)", i, c.SpecHash, h, err)
		}
		seen[c.SpecHash] = true
		if err := c.Spec.Validate(); err != nil {
			t.Fatalf("cell %d invalid: %v", i, err)
		}
	}
}

// TestExpandBatchZip: zipped axes advance together — one grid dimension of
// L correlated points, varying slowest — instead of multiplying.
func TestExpandBatchZip(t *testing.T) {
	req := BatchRequest{
		Template: Spec{Kind: KindRobust, Seed: 1, Payload: &RobustSpec{
			Init: InitSpec{Kind: "twovalue"},
		}},
		Axes: []Axis{{Param: "seed", Values: []float64{1, 2}}},
		Zip: []Axis{
			{Param: "n", Values: []float64{100, 1000}},
			{Param: "crashes", Values: []float64{1, 10}},
		},
	}
	cells, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 cartesian points × 2 zip points; zip varies slowest.
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	wantParams := [][]float64{{1, 100, 1}, {2, 100, 1}, {1, 1000, 10}, {2, 1000, 10}}
	for i, c := range cells {
		if !reflect.DeepEqual(c.Params, wantParams[i]) {
			t.Fatalf("cell %d params %v, want %v", i, c.Params, wantParams[i])
		}
		p := c.Spec.Payload.(*RobustSpec)
		if p.Init.N != int(wantParams[i][1]) || p.Crashes != int(wantParams[i][2]) {
			t.Fatalf("cell %d zip not applied: %+v", i, p)
		}
	}
	// Unequal zip lengths are rejected.
	req.Zip[1].Values = []float64{1}
	if _, err := expandBatch(req, batchLimits{}); err == nil {
		t.Fatal("unequal zip lengths must be rejected")
	}
}

// TestExpandBatchDerive: derived fields compute per-cell parameters from
// the cell's own axis values — the adversarial-sweep shape (n-dependent
// almost_slack) that used to force an explicit spec list.
func TestExpandBatchDerive(t *testing.T) {
	tmpl := medianTemplate()
	tmpl.Payload.(*MedianSpec).Adversary = &AdversarySpec{
		Name: "balancer", Budget: adversary.BudgetSpec{Kind: "sqrt", Factor: 1},
	}
	req := BatchRequest{
		Template: tmpl,
		Axes:     []Axis{{Param: "n", Values: []float64{100, 10000}}},
		Derive: []DeriveRule{
			{Param: "almost_slack", From: "n", Func: "sqrt", Factor: 3},
		},
	}
	cells, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	for i, wantSlack := range []int{int(math.Trunc(3 * 10)), int(math.Trunc(3 * 100))} {
		if got := medianPayload(t, cells[i].Spec).AlmostSlack; got != wantSlack {
			t.Fatalf("cell %d slack %d, want %d", i, got, wantSlack)
		}
	}
	// Derive sources must be axes of the same request.
	bad := req
	bad.Derive = []DeriveRule{{Param: "almost_slack", From: "m", Func: "sqrt"}}
	if _, err := expandBatch(bad, batchLimits{}); err == nil {
		t.Fatal("derive from a non-axis param must be rejected")
	}
	bad.Derive = []DeriveRule{{Param: "almost_slack", From: "n", Func: "warp"}}
	if _, err := expandBatch(bad, batchLimits{}); err == nil {
		t.Fatal("unknown derive func must be rejected")
	}
	bad.Derive = []DeriveRule{{Param: "n", From: "n"}}
	if _, err := expandBatch(bad, batchLimits{}); err == nil {
		t.Fatal("deriving an axis param must be rejected")
	}
}

// TestExpandBatchRejectsForeignPayload: a template whose payload belongs
// to another family must fail expansion (Submit rejects it too) — the
// cell clone must not silently truncate it into a valid-looking spec of
// the wrong family.
func TestExpandBatchRejectsForeignPayload(t *testing.T) {
	req := BatchRequest{
		Template: Spec{Kind: KindRobust, Payload: &MedianSpec{
			Init: InitSpec{Kind: "twovalue", N: 100},
			Rule: RuleSpec{Name: "voter"},
		}},
		Axes: []Axis{{Param: "seed", Values: []float64{1, 2}}},
	}
	if _, err := expandBatch(req, batchLimits{}); err == nil {
		t.Fatal("foreign template payload must fail batch expansion")
	}
}

// TestExpandBatchReps: repetitions get deterministic derived seeds — the
// same request expands to byte-identical cells every time — and distinct
// reps get distinct seeds.
func TestExpandBatchReps(t *testing.T) {
	req := BatchRequest{
		Template: medianTemplate(),
		Axes:     []Axis{{Param: "n", Values: []float64{100, 200}}},
		Reps:     3,
	}
	a, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	if len(a) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(a))
	}
	seeds := map[uint64]bool{}
	for _, c := range a {
		if c.Spec.Seed == 0 || seeds[c.Spec.Seed] {
			t.Fatalf("rep seeds must be distinct and non-zero: %+v", c.Spec)
		}
		seeds[c.Spec.Seed] = true
	}
}

// TestExpandBatchSeedAxisNoCollision: grid points of a seed axis whose raw
// values differ by exactly (j−i)·reps must still derive distinct rep seeds
// (the base is pre-mixed), so no grid point silently collapses into
// another's cached cells.
func TestExpandBatchSeedAxisNoCollision(t *testing.T) {
	tmpl := medianTemplate()
	tmpl.Payload.(*MedianSpec).Init.N = 100
	req := BatchRequest{
		Template: tmpl,
		Axes:     []Axis{{Param: "seed", Values: []float64{5, 3}}},
		Reps:     2,
	}
	cells, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	hashes := map[string]bool{}
	for _, c := range cells {
		if hashes[c.SpecHash] {
			t.Fatalf("seed axis collided: duplicate cell %+v", c)
		}
		hashes[c.SpecHash] = true
	}
}

// TestExpandBatchSeedFollowsInit: seed-consuming init kinds follow the
// derived rep seed (engine.SeedFollower), so repetitions draw distinct
// initial states.
func TestExpandBatchSeedFollowsInit(t *testing.T) {
	req := BatchRequest{
		Template: Spec{Seed: 9, Payload: &MedianSpec{
			Init: InitSpec{Kind: "uniform", M: 4},
			Rule: RuleSpec{Name: "median"},
		}},
		Axes: []Axis{{Param: "n", Values: []float64{100}}},
		Reps: 2,
	}
	cells, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if got := medianPayload(t, c.Spec).Init.Seed; got != c.Spec.Seed {
			t.Fatalf("uniform init seed %d must follow run seed %d", got, c.Spec.Seed)
		}
	}
	if medianPayload(t, cells[0].Spec).Init.Seed == medianPayload(t, cells[1].Spec).Init.Seed {
		t.Fatal("reps must draw distinct initial states")
	}
}

// TestExpandBatchMultidim patches the multidim payload's n and d.
func TestExpandBatchMultidim(t *testing.T) {
	req := BatchRequest{
		Template: Spec{Kind: KindMultidim, Seed: 1, Payload: &MultidimSpec{
			Init: multidim.InitSpec{Kind: "distinct"},
		}},
		Axes: []Axis{
			{Param: "n", Values: []float64{50, 60}},
			{Param: "d", Values: []float64{1, 4}},
		},
	}
	cells, err := expandBatch(req, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	last := cells[3].Spec.Payload.(*MultidimSpec)
	if last.Init.N != 60 || last.Init.D != 4 {
		t.Fatalf("multidim payload not patched: %+v", last)
	}
	// The template must not have been mutated by the expansion.
	tmpl := req.Template.Payload.(*MultidimSpec)
	if tmpl.Init.N != 0 || tmpl.Init.D != 0 {
		t.Fatalf("expansion leaked into the template: %+v", tmpl)
	}
}

// TestExpandBatchSpecsMode: explicit spec lists expand with reps too.
func TestExpandBatchSpecsMode(t *testing.T) {
	s1 := medianTemplate()
	s1.Payload.(*MedianSpec).Init.N = 100
	s2 := medianTemplate()
	s2.Payload.(*MedianSpec).Init.N = 200
	cells, err := expandBatch(BatchRequest{Specs: []Spec{s1, s2}, Reps: 2}, batchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	if medianPayload(t, cells[0].Spec).Init.N != 100 || medianPayload(t, cells[2].Spec).Init.N != 200 {
		t.Fatalf("specs-mode order wrong: %+v", cells)
	}
}

// TestExpandBatchErrors covers the rejection paths.
func TestExpandBatchErrors(t *testing.T) {
	tmpl := medianTemplate()
	ballTmpl := medianTemplate()
	ballTmpl.Payload.(*MedianSpec).Engine = "ball"
	cases := []struct {
		name   string
		req    BatchRequest
		limits batchLimits
	}{
		{"unknown param", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "warp", Values: []float64{1}}}}, batchLimits{}},
		{"empty axis", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "n"}}}, batchLimits{}},
		{"duplicate axis", BatchRequest{Template: tmpl, Axes: []Axis{
			{Param: "n", Values: []float64{10}}, {Param: "n", Values: []float64{20}}}}, batchLimits{}},
		{"non-integer n", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "n", Values: []float64{100.5}}}}, batchLimits{}},
		{"cell cap", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "n", Values: []float64{100, 200}}}, Reps: 3}, batchLimits{maxCells: 4}},
		// A huge reps must be rejected up front — not overflow the cell
		// count past the caps into a giant allocation.
		{"reps overflow", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "n", Values: []float64{100, 200}}}, Reps: 1 << 30}, batchLimits{maxCells: 4096}},
		{"reps overflow unlimited", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "n", Values: []float64{100, 200}}}, Reps: 1 << 30}, batchLimits{}},
		{"hard cap without limits", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "seed", Values: make([]float64, 2048)}}, Reps: 1024}, batchLimits{}},
		{"zip cap", BatchRequest{Template: tmpl,
			Axes: []Axis{{Param: "seed", Values: make([]float64, 2048)}},
			Zip:  []Axis{{Param: "n", Values: make([]float64, 2048)}}}, batchLimits{}},
		// The cap charges materialized size: a twovalue template would
		// resolve to the count engine and materialize only 2 states, so
		// pin the per-process engine to make the population bite.
		{"materialized-size cap", BatchRequest{Template: ballTmpl, Axes: []Axis{{Param: "n", Values: []float64{100000}}}}, batchLimits{maxN: 1000}},
		{"invalid cell", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "n", Values: []float64{0}}}}, batchLimits{}},
		{"axes and specs", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "n", Values: []float64{10}}}, Specs: []Spec{tmpl}}, batchLimits{}},
		{"derive and specs", BatchRequest{Derive: []DeriveRule{{Param: "almost_slack", From: "n"}}, Specs: []Spec{tmpl}}, batchLimits{}},
		{"d on median", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "d", Values: []float64{2}}}}, batchLimits{}},
		{"budget_factor without adversary", BatchRequest{Template: tmpl, Axes: []Axis{{Param: "budget_factor", Values: []float64{2}}}}, batchLimits{}},
	}
	for _, c := range cases {
		if _, err := expandBatch(c.req, c.limits); err == nil {
			t.Errorf("%s: expansion must fail", c.name)
		}
	}
}

// TestRunBatchStopsSubmitterOnEarlyReturn: when RunBatch returns early —
// here on an emit error, with the caller's context cancelled afterwards —
// its submitter goroutine exits too, instead of staying blocked on the
// full outcome channel nobody reads any more.
func TestRunBatchStopsSubmitterOnEarlyReturn(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	defer s.Close()
	tmpl := medianTemplate()
	tmpl.Payload.(*MedianSpec).Init.N = 100
	seeds := make([]float64, 600)
	for i := range seeds {
		seeds[i] = float64(i + 1)
	}
	cells, err := s.ExpandBatch(BatchRequest{Template: tmpl, Axes: []Axis{{Param: "seed", Values: seeds}}})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := errors.New("client gone")
	err = s.RunBatch(ctx, cells, func(BatchCellRecord) error {
		// Fail the first record once the submitter has filled the outcome
		// channel (256 slots) and submitted the cell it cannot hand over.
		for deadline := time.Now().Add(10 * time.Second); s.Metrics().JobsSubmitted <= 257; {
			if time.Now().After(deadline) {
				return fmt.Errorf("submitter stalled after %d cells", s.Metrics().JobsSubmitted)
			}
			time.Sleep(time.Millisecond)
		}
		return gone
	})
	if !errors.Is(err, gone) {
		t.Fatalf("RunBatch returned %v, want the emit error", err)
	}
	cancel()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before RunBatch:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunBatchDedupes: identical cells coalesce in flight and the second
// identical batch is served entirely from the cache.
func TestRunBatchDedupes(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	defer s.Close()
	req := BatchRequest{
		Template: medianTemplate(),
		Axes: []Axis{
			{Param: "n", Values: []float64{300, 400}},
			{Param: "seed", Values: []float64{1, 2}},
		},
	}
	cells, err := s.ExpandBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	var first []BatchCellRecord
	if err := s.RunBatch(context.Background(), cells, func(r BatchCellRecord) error {
		first = append(first, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 4 {
		t.Fatalf("emitted %d records, want 4", len(first))
	}
	for i, r := range first {
		if r.Index != i || r.Status != StatusDone || r.Result == nil {
			t.Fatalf("bad record %d: %+v", i, r)
		}
	}
	var second []BatchCellRecord
	if err := s.RunBatch(context.Background(), cells, func(r BatchCellRecord) error {
		second = append(second, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if !r.CacheHit {
			t.Fatalf("second batch cell %d must be a cache hit: %+v", i, r)
		}
		if !reflect.DeepEqual(r.Result, first[i].Result) {
			t.Fatalf("cached cell %d result differs", i)
		}
	}
	m := s.Metrics()
	if m.BatchesRun != 2 || m.BatchCellsExpanded != 8 || m.BatchCellsCached != 4 {
		t.Fatalf("batch metrics: %+v", m)
	}
}
