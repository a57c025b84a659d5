package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/service"
)

// record is one finished run of a sweep's grid point.
func record(params []float64, rep, rounds int) service.BatchCellRecord {
	return service.BatchCellRecord{
		BatchCell: service.BatchCell{Rep: rep, Params: params},
		Status:    service.StatusDone,
		Result:    &service.RunResult{Rounds: rounds},
	}
}

// cellsOf builds one single-measurement cell per x.
func cellsOf(f func(x float64) float64, xs ...float64) []Cell {
	cells := make([]Cell, len(xs))
	for i, x := range xs {
		cells[i] = Cell{Params: []float64{x}, Summary: stats.Summarize([]float64{f(x)})}
	}
	return cells
}

// TestSweepSummary: Cells folds each grid point's consecutive reps into
// one cell, in grid order, with the raw rounds in rep order.
func TestSweepSummary(t *testing.T) {
	var recs []service.BatchCellRecord
	for _, n := range []float64{10, 20} {
		for rep, rounds := range []int{3, 5, 4} {
			recs = append(recs, record([]float64{n}, rep, rounds+int(n)))
		}
	}
	cells, err := Cells(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	for i, n := range []float64{10, 20} {
		c := cells[i]
		if c.Params[0] != n || c.Summary.N != 3 || c.Summary.Mean != n+4 {
			t.Fatalf("cell %d: params %v, N %d, mean %v", i, c.Params, c.Summary.N, c.Summary.Mean)
		}
		if c.Raw[0] != n+3 || c.Raw[1] != n+5 || c.Raw[2] != n+4 {
			t.Fatalf("cell %d: raw %v not in rep order", i, c.Raw)
		}
	}
}

// TestCellsRejectsUnfinished: a sweep with a run that failed has no honest
// summary, so Cells reports it instead of folding in a zero.
func TestCellsRejectsUnfinished(t *testing.T) {
	failed := record([]float64{10}, 1, 0)
	failed.Status, failed.Result, failed.Error = service.StatusFailed, nil, "boom"
	_, err := Cells([]service.BatchCellRecord{record([]float64{10}, 0, 3), failed})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("failed run folded without error: %v", err)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"n", "rounds"}}
	tab.AddRow("100", "12.5")
	tab.AddRow("100000", "30.1")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Alignment: the first row's n-column is padded to the widest value.
	if !strings.HasPrefix(lines[3], "100    ") {
		t.Fatalf("row not padded: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.CSV(&buf)
	if buf.String() != "a,b\n1,2\n" {
		t.Fatalf("csv: %q", buf.String())
	}
}

func TestFormatF(t *testing.T) {
	if F(3) != "3" {
		t.Fatalf("F(3) = %q", F(3))
	}
	if F(3.14159) != "3.14" {
		t.Fatalf("F(pi) = %q", F(3.14159))
	}
	if F(1e6) != "1000000" {
		t.Fatalf("F(1e6) = %q", F(1e6))
	}
}

func TestCellsTable(t *testing.T) {
	cells := cellsOf(func(x float64) float64 { return x }, 4, 8)
	tab := CellsTable("t", []string{"n"}, cells)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "4" || tab.Rows[0][1] != "4.00" {
		t.Fatalf("row %v", tab.Rows[0])
	}
}

func TestDescribeFitLogN(t *testing.T) {
	// Means that are exactly 3 ln n + 1.
	cells := cellsOf(func(n float64) float64 { return 3*math.Log(n) + 1 }, 100, 1000, 10000, 100000)
	fit, desc := DescribeFit(cells, LawLogN)
	if math.Abs(fit.Slope-3) > 1e-9 || fit.R2 < 1-1e-12 {
		t.Fatalf("fit %+v (%s)", fit, desc)
	}
	if !strings.Contains(desc, "ln(n)") {
		t.Fatalf("desc %q", desc)
	}
}

func TestDescribeFitLogLogAndLinear(t *testing.T) {
	cells := cellsOf(func(n float64) float64 { return 5 * math.Log(math.Log(n)) }, 100, 10000, 100000000)
	fit, _ := DescribeFit(cells, LawLogLogN)
	if math.Abs(fit.Slope-5) > 1e-9 {
		t.Fatalf("loglog fit %+v", fit)
	}
	fit2, _ := DescribeFit(cellsOf(func(x float64) float64 { return 2 * x }, 1, 2, 3), LawLinear)
	if math.Abs(fit2.Slope-2) > 1e-9 {
		t.Fatalf("linear fit %+v", fit2)
	}
}
