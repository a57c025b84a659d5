package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/adversary"
	"repro/engine"
	"repro/internal/rng"
	"repro/obs"
)

// BatchRequest is the wire form of a parameter sweep: either a template
// spec plus grid axes (expanded server-side, internal/experiment style) or
// an explicit list of pre-built cell specs. Exactly one of the grid fields
// (Axes/Zip/Derive) and Specs may be used; Reps applies to both.
//
// Which parameters a kind accepts as axes is part of its engine descriptor
// (GET /v1/engines, Descriptor.Axes); the envelope axes "seed" and
// "max_rounds" work for every kind.
type BatchRequest struct {
	// Template is the spec every grid cell starts from (grid-mode only).
	Template Spec `json:"template,omitzero"`
	// Axes are expanded as a cartesian product, last axis fastest; each
	// value patches the template field named by Param.
	Axes []Axis `json:"axes,omitempty"`
	// Zip axes advance together instead of multiplying: all must have
	// the same length L, contributing one grid dimension of L points
	// (varying slowest). They express correlated parameters — e.g.
	// n paired with a hand-picked per-n crash count — that a cartesian
	// product cannot.
	Zip []Axis `json:"zip,omitempty"`
	// Derive computes per-cell parameters from the cell's own axis
	// values — e.g. an n-dependent almost_slack for adversarial sweeps —
	// so derived fields no longer force an explicit spec list.
	Derive []DeriveRule `json:"derive,omitempty"`
	// Specs lists explicit cell specs instead of a grid.
	Specs []Spec `json:"specs,omitempty"`
	// Reps repeats every cell with derived per-repetition seeds
	// (0 = 1). See ExpandBatch for the derivation.
	Reps int `json:"reps,omitempty"`
}

// Axis is one sweep dimension: a parameter name and its values.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// DeriveRule computes one cell parameter from an axis value of the same
// cell: target = Factor · f(from), where f is named by Func. "sqrt" and
// "sqrtlog" are the integer-valued adversary budget families themselves
// (adversary.Sqrt/SqrtLog: the scaled value truncates toward zero), so a
// derived slack of {func: "sqrt", factor: 3} is exactly the budget
// ⌊3·√n⌋; "log2" truncates the same way; "linear" applies raw, for
// float-valued targets.
type DeriveRule struct {
	// Param names the target parameter (any axis-patchable param of the
	// template's kind).
	Param string `json:"param"`
	// From names the source axis or zip param the cell value is read from.
	From string `json:"from"`
	// Func is the derivation: "linear" (default), "sqrt", "sqrtlog" or
	// "log2".
	Func string `json:"func,omitempty"`
	// Factor scales the derived value (0 = 1).
	Factor float64 `json:"factor,omitempty"`
}

// value computes the derived parameter from the source axis value.
func (d DeriveRule) value(x float64) (float64, error) {
	f := d.Factor
	if f == 0 {
		f = 1
	}
	switch d.Func {
	case "", "linear":
		return f * x, nil
	case "sqrt", "sqrtlog":
		// The adversary package owns these families; resolving through
		// BudgetSpec keeps derive rules and budgets from ever diverging.
		bf, err := adversary.BudgetSpec{Kind: d.Func, Factor: f}.Func()
		if err != nil {
			return 0, err
		}
		return float64(bf(int(x))), nil
	case "log2":
		if x < 1 {
			return 0, nil
		}
		return math.Trunc(f * math.Log2(x)), nil
	default:
		return 0, fmt.Errorf("service: unknown derive func %q (known: linear, log2, sqrt, sqrtlog)", d.Func)
	}
}

// BatchCell is one expanded cell of a batch: its grid coordinates and the
// admitted spec it will run.
type BatchCell struct {
	// Index is the cell's position in expansion order.
	Index int `json:"index"`
	// Rep is the repetition number within the grid point.
	Rep int `json:"rep"`
	// Params echoes the axis values that produced the cell (grid-mode;
	// cartesian axes first, then zip axes).
	Params []float64 `json:"params,omitempty"`
	// Spec is the admitted cell spec (Spec.Admit); SpecHash its canonical
	// hash.
	Spec     Spec   `json:"spec"`
	SpecHash string `json:"spec_hash"`
}

// BatchCellRecord is one line of the batch NDJSON stream: a cell plus the
// outcome of its run.
type BatchCellRecord struct {
	BatchCell
	// JobID is the job that ran (or had already run) the cell.
	JobID  string `json:"job_id,omitempty"`
	Status Status `json:"status"`
	// CacheHit marks cells answered from the result cache; Coalesced
	// marks cells absorbed by an identical cell earlier in the batch.
	CacheHit  bool       `json:"cache_hit,omitempty"`
	Coalesced bool       `json:"coalesced,omitempty"`
	Result    *RunResult `json:"result,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// batchLimits bounds batch expansion. Zero values mean unlimited.
type batchLimits struct {
	// maxCells caps the number of expanded cells (reps included).
	maxCells int
	// maxN caps the materialized size of any single cell.
	maxN int64
}

// grid is the validated shape of a batch request's axes/zip/derive fields.
type grid struct {
	axes   []Axis
	zip    []Axis
	derive []DeriveRule
	cart   int // cartesian points (product of axes lengths)
	zipLen int // zip points (1 when no zip axes)
}

// buildGrid validates the grid fields against the template's kind (axis
// names must be descriptor axes or the shared seed/max_rounds) and the
// expansion ceiling.
func buildGrid(req BatchRequest, maxCells int) (grid, error) {
	g := grid{axes: req.Axes, zip: req.Zip, derive: req.Derive, cart: 1, zipLen: 1}
	seen := map[string]bool{}
	checkAxis := func(ax Axis, where string) error {
		switch {
		case ax.Param == "" || !req.Template.AxisOK(ax.Param):
			return fmt.Errorf("service: unknown batch %s param %q for kind %s", where, ax.Param, specKind(req.Template))
		case seen[ax.Param]:
			return fmt.Errorf("service: batch %s param %q appears twice", where, ax.Param)
		case len(ax.Values) == 0:
			return fmt.Errorf("service: batch %s %q has no values", where, ax.Param)
		}
		seen[ax.Param] = true
		return nil
	}
	for _, ax := range g.axes {
		if err := checkAxis(ax, "axis"); err != nil {
			return grid{}, err
		}
		if g.cart > maxCells/len(ax.Values) {
			return grid{}, fmt.Errorf("service: batch grid too large")
		}
		g.cart *= len(ax.Values)
	}
	for i, ax := range g.zip {
		if err := checkAxis(ax, "zip axis"); err != nil {
			return grid{}, err
		}
		if i > 0 && len(ax.Values) != g.zipLen {
			return grid{}, fmt.Errorf("service: zip axes must have equal lengths, %q has %d values, want %d",
				ax.Param, len(ax.Values), g.zipLen)
		}
		g.zipLen = len(ax.Values)
	}
	if g.cart > maxCells/g.zipLen {
		return grid{}, fmt.Errorf("service: batch grid too large")
	}
	for _, d := range g.derive {
		if d.Param == "" || !req.Template.AxisOK(d.Param) {
			return grid{}, fmt.Errorf("service: unknown derive param %q for kind %s", d.Param, specKind(req.Template))
		}
		if seen[d.Param] {
			return grid{}, fmt.Errorf("service: derive param %q is already an axis or derive target", d.Param)
		}
		seen[d.Param] = true
		if !axisParamIn(g.axes, d.From) && !axisParamIn(g.zip, d.From) {
			return grid{}, fmt.Errorf("service: derive source %q is not an axis or zip param", d.From)
		}
		if _, err := d.value(1); err != nil {
			return grid{}, err
		}
	}
	return g, nil
}

func axisParamIn(axes []Axis, param string) bool {
	for _, ax := range axes {
		if ax.Param == param {
			return true
		}
	}
	return false
}

// specKind renders a spec's kind for error messages ("" is the default
// kind).
func specKind(s Spec) string { return cmp.Or(s.Kind, engine.DefaultKind()) }

// cell materializes one grid point: the cartesian axes at index ci (last
// axis fastest), the zip axes at index zi, then the derived params.
func (g grid) cell(template Spec, ci, zi int) (Spec, []float64, error) {
	spec := template.Clone()
	params := make([]float64, 0, len(g.axes)+len(g.zip))
	byName := make(map[string]float64, len(g.axes)+len(g.zip))
	stride := 1
	axisVals := make([]float64, len(g.axes))
	for i := len(g.axes) - 1; i >= 0; i-- {
		v := g.axes[i].Values[(ci/stride)%len(g.axes[i].Values)]
		axisVals[i] = v
		stride *= len(g.axes[i].Values)
	}
	for i, ax := range g.axes {
		params = append(params, axisVals[i])
		byName[ax.Param] = axisVals[i]
		if err := spec.ApplyAxis(ax.Param, axisVals[i]); err != nil {
			return Spec{}, nil, err
		}
	}
	for _, ax := range g.zip {
		v := ax.Values[zi]
		params = append(params, v)
		byName[ax.Param] = v
		if err := spec.ApplyAxis(ax.Param, v); err != nil {
			return Spec{}, nil, err
		}
	}
	for _, d := range g.derive {
		v, err := d.value(byName[d.From])
		if err != nil {
			return Spec{}, nil, err
		}
		if err := spec.ApplyAxis(d.Param, v); err != nil {
			return Spec{}, nil, err
		}
	}
	return spec, params, nil
}

// expandBatch is ExpandBatch under explicit limits.
func expandBatch(req BatchRequest, limits batchLimits) ([]BatchCell, error) {
	// maxCells is the absolute expansion ceiling, applied before any
	// multiplication so attacker-sized axes/reps can neither overflow the
	// cell count nor drive a huge allocation; limits.maxCells can only
	// tighten it.
	const maxCells = 1 << 20
	reps := req.Reps
	if reps <= 0 {
		reps = 1
	}
	if reps > maxCells {
		return nil, fmt.Errorf("service: batch reps %d exceeds the limit %d", reps, maxCells)
	}
	gridMode := len(req.Axes) > 0 || len(req.Zip) > 0 || len(req.Derive) > 0
	if gridMode && len(req.Specs) > 0 {
		return nil, fmt.Errorf("service: batch request sets both axes and specs")
	}
	g, err := buildGrid(req, maxCells)
	if err != nil {
		return nil, err
	}
	points := g.cart * g.zipLen
	if len(req.Specs) > 0 {
		points = len(req.Specs)
	}
	// points, reps <= 2^20 each, so the product cannot overflow.
	total := points * reps
	if total > maxCells {
		return nil, fmt.Errorf("service: batch expands to %d cells, the limit is %d", total, maxCells)
	}
	if limits.maxCells > 0 && total > limits.maxCells {
		return nil, fmt.Errorf("service: batch expands to %d cells, server limit is %d", total, limits.maxCells)
	}

	// base seeds the rep derivation for cells whose own seed is zero.
	base := req.Template.Seed
	if base == 0 {
		h, err := req.Template.Hash()
		if err != nil {
			return nil, err
		}
		base = DeriveSeed(h)
	}

	cells := make([]BatchCell, 0, total)
	for point := 0; point < points; point++ {
		var spec Spec
		var params []float64
		if len(req.Specs) > 0 {
			spec = req.Specs[point]
		} else {
			var err error
			// Zip axes vary slowest: point = zi·cart + ci.
			if spec, params, err = g.cell(req.Template, point%g.cart, point/g.cart); err != nil {
				return nil, err
			}
		}
		for rep := 0; rep < reps; rep++ {
			cell := spec
			if reps > 1 {
				s := cell.Seed
				if s == 0 {
					s = base
				}
				cell = cell.Clone()
				cell.SetSeed(rng.Mix64(rng.Mix64(s) + uint64(point)*uint64(reps) + uint64(rep)))
			}
			cell, hash, err := cell.Admit(limits.maxN)
			if err != nil {
				return nil, fmt.Errorf("service: batch cell %d: %w", len(cells), err)
			}
			cells = append(cells, BatchCell{
				Index:    len(cells),
				Rep:      rep,
				Params:   params,
				Spec:     cell,
				SpecHash: hash,
			})
		}
	}
	return cells, nil
}

// ExpandBatch expands a batch request into admitted cells: the grid —
// cartesian axes times zipped axes, plus derived params — applied to the
// template (or the explicit spec list), times Reps repetitions. Each cell
// passes Spec.Admit exactly once, here, under the service's limits
// (Options.MaxN, and Options.MaxBatchCells on the cell count); RunBatch
// trusts the result.
//
// Repetition seeding is deterministic so batches are cache-stable: with
// Reps == 1 the cell seeds are left exactly as the template/axes produced
// them, and with Reps > 1 repetition r of cell i runs with seed
// Mix64(Mix64(base) + i·Reps + r), where base is the cell's post-axis
// seed, or a seed derived from the template hash when zero. Pre-mixing
// the base keeps a seed axis from colliding across grid points (raw bases
// differing by exactly (j−i)·Reps would otherwise derive identical rep
// seeds). Init kinds that consume their own seed (uniform, random) follow
// the run seed (engine.SeedFollower), so every repetition draws its own
// initial state.
func (s *Service) ExpandBatch(req BatchRequest) ([]BatchCell, error) {
	return expandBatch(req, batchLimits{maxCells: s.opts.MaxBatchCells, maxN: s.opts.MaxN})
}

// RunBatch runs expanded cells through the worker pool and emits one
// BatchCellRecord per cell, in cell order, as each finishes. Identical
// cells dedupe automatically: against the result cache (CacheHit) and
// against in-flight runs (Coalesced for duplicates within the batch).
// Submission applies backpressure — a full queue delays the batch instead
// of failing it. RunBatch returns early only on context cancellation, a
// closed service, or an emit error, and stops submitting when it does.
//
// The cells must come from ExpandBatch: RunBatch does not admit them
// again but queues each cell's Spec under its SpecHash as given, and the
// worker runs that Spec as it is, so the cell's normalization and
// validation, like its hash, are ExpandBatch's. That is safe because
// ExpandBatch is the only exported source of cells, and it admits every
// one under this service's own limits.
func (s *Service) RunBatch(ctx context.Context, cells []BatchCell, emit func(BatchCellRecord) error) error {
	// The submitter below must not outlive RunBatch: cancelling on return
	// releases it from a full channel nobody reads any more.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.metrics.batchesRun.Add(1)
	s.metrics.batchCellsExpanded.Add(int64(len(cells)))
	reqID := obs.RequestIDFrom(ctx)
	batchStart := time.Now()
	s.bus.Publish(obs.Event{
		Type: "batch.started", RequestID: reqID,
		Detail: fmt.Sprintf("%d cells", len(cells)),
	})
	type outcome struct {
		cell BatchCell
		job  *Job
		view JobView
		err  error
	}
	// The submitter races ahead of the in-order emitter so the worker pool
	// stays saturated. The buffer is bounded — a million-cell sweep must
	// not pre-allocate a million outcome slots; the emitter always drains,
	// so a blocked send just pauses submission.
	buffer := len(cells)
	if buffer > 256 {
		buffer = 256
	}
	ch := make(chan outcome, buffer)
	go func() {
		defer close(ch)
		for _, c := range cells {
			// Stop submitting the moment the caller is gone — a
			// disconnected batch must not keep feeding the worker pool.
			if ctx.Err() != nil {
				return
			}
			j, view, err := s.submitWithRetry(ctx, c.Spec, c.SpecHash, reqID)
			select {
			case ch <- outcome{cell: c, job: j, view: view, err: err}:
			case <-ctx.Done():
				return
			}
			if err != nil && (errors.Is(err, ErrClosed) || ctx.Err() != nil) {
				return
			}
		}
	}()
	seen := make(map[string]bool, len(cells))
	emitted := 0
	for o := range ch {
		rec := BatchCellRecord{BatchCell: o.cell}
		if o.err != nil {
			if errors.Is(o.err, ErrClosed) || ctx.Err() != nil {
				return o.err
			}
			rec.Status = StatusFailed
			rec.Error = o.err.Error()
		} else {
			rec.JobID = o.view.ID
			rec.CacheHit = o.view.CacheHit
			if o.view.CacheHit {
				s.metrics.batchCellsCached.Add(1)
			}
			if seen[o.view.ID] {
				rec.Coalesced = true
				s.metrics.batchCellsCoalesced.Add(1)
			}
			seen[o.view.ID] = true
			final, err := waitTerminal(ctx, o.job)
			if err != nil {
				return err
			}
			rec.Status = final.Status
			rec.Result = final.Result
			rec.Error = final.Error
		}
		if err := emit(rec); err != nil {
			return err
		}
		emitted++
	}
	if emitted < len(cells) {
		return ctx.Err()
	}
	s.bus.Publish(obs.Event{
		Type: "batch.done", RequestID: reqID,
		Elapsed: time.Since(batchStart).Seconds(),
		Detail:  fmt.Sprintf("%d cells", len(cells)),
	})
	return nil
}

// submitWithRetry enqueues an admitted cell, waiting out a full queue
// instead of shedding it — batches are deliberate bulk work, not
// interactive load.
func (s *Service) submitWithRetry(ctx context.Context, spec Spec, hash, reqID string) (*Job, JobView, error) {
	for {
		j, view, err := s.enqueue(spec, hash, reqID)
		if !errors.Is(err, ErrQueueFull) {
			return j, view, err
		}
		select {
		case <-ctx.Done():
			return nil, JobView{}, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waitTerminal blocks until the job reaches a terminal state. It holds the
// *Job directly so history eviction mid-batch cannot orphan the wait.
func waitTerminal(ctx context.Context, j *Job) (JobView, error) {
	for {
		j.mu.Lock()
		terminal := j.status.terminal()
		notify := j.updated()
		j.mu.Unlock()
		if terminal {
			return j.view(), nil
		}
		select {
		case <-ctx.Done():
			return JobView{}, ctx.Err()
		case <-notify:
		}
	}
}
