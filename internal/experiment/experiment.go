// Package experiment turns simulation runs into the tables the paper
// reports: per-grid-point summary statistics of a rounds sweep, growth-law
// fits, and ASCII/CSV table rendering.
//
// A sweep is a service batch (service.BatchRequest: a template spec, grid
// axes and repetitions) run through the service client, on a local
// executor or a consensusd daemon alike; Cells folds its records into one
// Cell per grid point.
package experiment

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
	"repro/service"
)

// Cell is the aggregated result of one grid point.
type Cell struct {
	// Params is the grid point's axis values.
	Params []float64
	// Summary aggregates the repetitions' measurements.
	Summary stats.Summary
	// Raw holds the individual measurements in repetition order.
	Raw []float64
}

// Cells folds the records of a rounds sweep into one Cell per grid point,
// each run contributing its round count. The records must come in batch
// expansion order, as the service streams them: a grid point's
// repetitions are consecutive, starting at rep 0. A run that did not
// finish is an error.
func Cells(records []service.BatchCellRecord) ([]Cell, error) {
	var cells []Cell
	for _, rec := range records {
		if rec.Status != service.StatusDone || rec.Result == nil {
			return nil, fmt.Errorf("experiment: cell %d (%s): status %s: %s",
				rec.Index, rec.SpecHash, rec.Status, rec.Error)
		}
		if rec.Rep == 0 || len(cells) == 0 {
			cells = append(cells, Cell{Params: rec.Params})
		}
		c := &cells[len(cells)-1]
		c.Raw = append(c.Raw, float64(rec.Result.Rounds))
	}
	for i := range cells {
		cells[i].Summary = stats.Summarize(cells[i].Raw)
	}
	return cells, nil
}

// Table is a rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned ASCII table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV writes the table as comma-separated values (no title line).
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float compactly for tables.
func F(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// CellsTable renders sweep cells as a Table with mean ± stderr, median and
// extremes.
func CellsTable(title string, keys []string, cells []Cell) *Table {
	t := &Table{Title: title}
	t.Header = append(append([]string{}, keys...),
		"mean", "stderr", "median", "min", "max", "reps")
	for _, c := range cells {
		row := make([]string, 0, len(c.Params)+6)
		for _, p := range c.Params {
			row = append(row, F(p))
		}
		s := c.Summary
		row = append(row, fmt.Sprintf("%.2f", s.Mean), fmt.Sprintf("%.2f", s.StdErr),
			F(s.Median), F(s.Min), F(s.Max), fmt.Sprintf("%d", s.N))
		t.AddRow(row...)
	}
	return t
}

// GrowthLaw names a fit family for DescribeFit.
type GrowthLaw int

const (
	// LawLogN fits rounds ≈ a·ln n + b.
	LawLogN GrowthLaw = iota
	// LawLogLogN fits rounds ≈ a·ln ln n + b.
	LawLogLogN
	// LawLinear fits rounds ≈ a·x + b on the raw parameter.
	LawLinear
)

// DescribeFit fits the cells' means against the first parameter under the
// law and returns a human-readable verdict string including R².
func DescribeFit(cells []Cell, law GrowthLaw) (stats.LinearFit, string) {
	xs := make([]float64, len(cells))
	ys := make([]float64, len(cells))
	for i, c := range cells {
		xs[i] = c.Params[0]
		ys[i] = c.Summary.Mean
	}
	var fit stats.LinearFit
	var name string
	switch law {
	case LawLogN:
		fit = stats.FitLogN(xs, ys)
		name = "a*ln(n)+b"
	case LawLogLogN:
		fit = stats.FitLogLogN(xs, ys)
		name = "a*ln(ln(n))+b"
	case LawLinear:
		fit = stats.FitLinear(xs, ys)
		name = "a*x+b"
	default:
		panic("experiment: unknown growth law")
	}
	return fit, fmt.Sprintf("%s: a=%.3f b=%.3f R2=%.4f", name, fit.Slope, fit.Intercept, fit.R2)
}
