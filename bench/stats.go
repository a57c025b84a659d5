package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// minBeyondP99 is how many samples must lie beyond the 99th percentile
// before it is reported: a tail percentile resting on fewer samples is noise.
const minBeyondP99 = 10

// summary is a sample's median and 99th percentile, both by nearest rank.
type summary struct {
	n        int
	p50, p99 float64
	// p99OK is false when fewer than minBeyondP99 samples lie beyond the
	// 99th percentile (fewer than 1000 samples); p99 is then unset.
	p99OK bool
}

func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	out := summary{n: n, p50: s[nearestRank(n, 0.50)-1]}
	if r := nearestRank(n, 0.99); n-r >= minBeyondP99 {
		out.p99, out.p99OK = s[r-1], true
	}
	return out
}

// nearestRank is the 1-based rank of the q-quantile of n sorted samples.
func nearestRank(n int, q float64) int {
	return max(1, min(n, int(math.Ceil(q*float64(n)))))
}

// metric is one named measurement. A metric that a run could not measure
// (no samples, or too few for a tail percentile) has ok == false and is
// printed as n/a with the reason in note.
type metric struct {
	name  string
	unit  string
	value float64
	ok    bool
	note  string
}

// report collects a run's metrics in print order and its correctness
// violations.
type report struct {
	metrics    []metric
	violations []string
	attempted  int
	failed     int
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, ok: true, note: note})
}

func (r *report) na(name, unit, why string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, note: why})
}

// addP50 and addP99 report a sample summary's percentiles with their
// sample counts.
func (r *report) addP50(name, unit string, s summary) {
	if s.n == 0 {
		r.na(name, unit, "no samples")
		return
	}
	r.add(name, unit, s.p50, fmt.Sprintf("n=%d", s.n))
}

func (r *report) addP99(name, unit string, s summary) {
	if !s.p99OK {
		r.na(name, unit, fmt.Sprintf("n=%d, p99 needs >= %d samples", s.n, 100*minBeyondP99))
		return
	}
	r.add(name, unit, s.p99, fmt.Sprintf("n=%d", s.n))
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes every metric by name, value, unit and sample note, then the
// outcome of the correctness checks.
func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		v := "n/a"
		if m.ok {
			v = fmt.Sprintf("%.6g", m.value)
		}
		fmt.Fprintf(w, "  %-34s %14s %-7s %s\n", m.name, v, m.unit, m.note)
	}
	if r.failed > 0 {
		fmt.Fprintf(w, "check FAILED: %d of %d ops failed or were refused\n", r.failed, r.attempted)
	}
	for i, v := range r.violations {
		if i == 20 {
			fmt.Fprintf(w, "check FAILED: ... %d more\n", len(r.violations)-i)
			break
		}
		fmt.Fprintf(w, "check FAILED: %s\n", v)
	}
	if r.correct() {
		fmt.Fprintln(w, "checks passed")
	}
}

// resultLine renders the machine-readable last line of a run: the named
// metrics (each must have been measured) plus the op counts and the
// correctness verdict.
func (r *report) resultLine(names []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, name := range names {
		m, ok := r.lookup(name)
		if !ok || !m.ok {
			return nil, fmt.Errorf("metric %s was not measured (%s)", name, m.note)
		}
		metrics[name] = value{Value: m.value, Unit: m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf is the nearest-rank median of a few values (set-up repeats).
func medianOf(xs []float64) float64 { return summarize(xs).p50 }
