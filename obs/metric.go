package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Inc and Add are single
// atomic operations — safe (and intended) for hot loops.
type Counter struct {
	desc Desc
	v    atomic.Int64
}

// Inc adds one.
//
//consensus:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error; they are applied
// anyway rather than paying a branch on the hot path).
//
//consensus:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) Describe() Desc { return c.desc }
func (c *Counter) Collect() []Sample {
	return []Sample{{Value: float64(c.v.Load())}}
}

// Counter creates and registers an unlabeled counter.
func (r *Registry) Counter(name, jsonName, help string) *Counter {
	c := &Counter{desc: Desc{Name: name, JSONName: jsonName, Help: help, Type: "counter"}}
	r.Register(c)
	return c
}

// Gauge is a settable up/down metric (in-flight work, pool occupancy).
// All methods are single atomic operations.
type Gauge struct {
	desc Desc
	v    atomic.Int64
}

// Inc adds one.
//
//consensus:hotpath
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
//
//consensus:hotpath
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
//
//consensus:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
//
//consensus:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) Describe() Desc { return g.desc }
func (g *Gauge) Collect() []Sample {
	return []Sample{{Value: float64(g.v.Load())}}
}

// Gauge creates and registers an unlabeled settable gauge.
func (r *Registry) Gauge(name, jsonName, help string) *Gauge {
	g := &Gauge{desc: Desc{Name: name, JSONName: jsonName, Help: help, Type: "gauge"}}
	r.Register(g)
	return g
}

// funcMetric is a scalar whose value is computed at collect time — the
// shape of gauges derived from live state (queue depth, uptime, store
// size) and of counters owned by another subsystem (store stats).
type funcMetric struct {
	desc Desc
	fn   func() float64
}

func (g *funcMetric) Describe() Desc    { return g.desc }
func (g *funcMetric) Collect() []Sample { return []Sample{{Value: g.fn()}} }

// GaugeFunc registers a gauge computed by fn at every walk.
func (r *Registry) GaugeFunc(name, jsonName, help string, fn func() float64) {
	r.Register(&funcMetric{desc: Desc{Name: name, JSONName: jsonName, Help: help, Type: "gauge"}, fn: fn})
}

// CounterFunc registers a counter whose value another subsystem owns
// (e.g. persistent-store statistics); fn is read at every walk.
func (r *Registry) CounterFunc(name, jsonName, help string, fn func() float64) {
	r.Register(&funcMetric{desc: Desc{Name: name, JSONName: jsonName, Help: help, Type: "counter"}, fn: fn})
}

// infoMetric is a constant-1 gauge carrying identity labels
// (consensusd_build_info style).
type infoMetric struct {
	desc   Desc
	values []string
}

func (i *infoMetric) Describe() Desc    { return i.desc }
func (i *infoMetric) Collect() []Sample { return []Sample{{LabelValues: i.values, Value: 1}} }

// Info registers a constant gauge of value 1 whose labels carry build or
// runtime identity (version, go runtime).
func (r *Registry) Info(name, jsonName, help string, labels, values []string) {
	r.Register(&infoMetric{
		desc:   Desc{Name: name, JSONName: jsonName, Help: help, Type: "gauge", Labels: labels},
		values: values,
	})
}

// vec is the shared label-resolution machinery of CounterVec and
// HistogramVec: a mutex-guarded map from joined label values to the child
// metric. With is meant to be called once per run/request to resolve a
// child handle; the handle's updates are then lock-free.
type vec[T any] struct {
	mu       sync.Mutex
	children map[string]*T
	values   map[string][]string
	newChild func() *T
}

func newVec[T any](newChild func() *T) vec[T] {
	return vec[T]{children: map[string]*T{}, values: map[string][]string{}, newChild: newChild}
}

func (v *vec[T]) with(labelValues []string) *T {
	// The key is built on the stack: looking up an existing child, the
	// common case, allocates nothing.
	var stack [64]byte
	key := appendJoined(stack[:0], labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[string(key)]; ok {
		return c
	}
	c, k := v.newChild(), string(key)
	v.children[k] = c
	vals := make([]string, len(labelValues))
	copy(vals, labelValues)
	v.values[k] = vals
	return c
}

// snapshot returns the children in sorted-key order, so the exposition
// (Prometheus text and JSON alike) is canonical regardless of which
// request first resolved which child.
func (v *vec[T]) snapshot() (keys []string, children []*T, values [][]string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys = make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, v.children[k])
		values = append(values, v.values[k])
	}
	return
}

// appendJoined appends the label values to b, separated by a byte that
// cannot appear in practice (0xff), so distinct value tuples cannot
// collide.
func appendJoined(b []byte, values []string) []byte {
	for i, s := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, s...)
	}
	return b
}

// CounterVec is a labeled counter family. Resolve a child with With once,
// then update it lock-free.
type CounterVec struct {
	desc Desc
	vec  vec[Counter]
}

// With returns the child counter for the given label values (created on
// first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.vec.with(labelValues)
}

func (v *CounterVec) Describe() Desc { return v.desc }
func (v *CounterVec) Collect() []Sample {
	_, children, values := v.vec.snapshot()
	out := make([]Sample, len(children))
	for i, c := range children {
		out[i] = Sample{LabelValues: values[i], Value: float64(c.v.Load())}
	}
	return out
}

// CounterVec creates and registers a labeled counter family.
func (r *Registry) CounterVec(name, jsonName, help string, labels ...string) *CounterVec {
	v := &CounterVec{
		desc: Desc{Name: name, JSONName: jsonName, Help: help, Type: "counter", Labels: labels},
		vec:  newVec(func() *Counter { return &Counter{} }),
	}
	r.Register(v)
	return v
}
