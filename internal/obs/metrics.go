// Package obs is Astra's unified telemetry layer: hierarchical spans on
// the simulated clock (session → trial → batch → fusion-group dispatch), a
// metrics registry with Prometheus text exposition, and a structured JSONL
// event log with one record per mini-batch.
//
// The paper's central observability claims — always-on fine-grained
// profiling under 0.5% overhead (§6.4) and exploration converging in a
// bounded number of mini-batches (§6.3, Table 7) — are only checkable with
// an end-to-end view of a session. This package provides that view: the
// custom-wirer, the explorer, the profile index and the GPU simulator all
// report into one Telemetry bundle, and a whole exploration session exports
// as a single multi-track Chrome/Perfetto trace.
//
// Everything here is safe for concurrent use: future work dispatches onto
// the device from concurrent streams, and the telemetry hot path must not
// be the thing that makes that racy.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Counter is a monotonically increasing metric (e.g. explore.trials).
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic (counters are monotone).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("obs: counter decrement %v", d))
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a metric that can go up and down (e.g. profile.hit_rate).
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the gauge by d (either sign).
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// DefTimeBuckets is the default histogram bucketing for simulated-time
// metrics, in µs: it spans a cheap fused kernel (~10 µs) to a multi-second
// mini-batch.
var DefTimeBuckets = []float64{
	10, 25, 50, 100, 250, 500,
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4,
	1e5, 2.5e5, 5e5, 1e6, 2.5e6,
}

// Histogram is a cumulative-bucket histogram (Prometheus semantics).
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending; +Inf is implicit
	counts  []uint64  // one per bucket (non-cumulative internally)
	inf     uint64
	sum     float64
	n       uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.n++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Registry holds named metrics. Names may use dots as namespace separators
// (explore.trials, batch.total_us); exposition sanitizes them to the
// Prometheus charset.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]interface{} // *Counter | *Gauge | *Histogram
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]interface{}{}, help: map[string]string{}}
}

// Counter returns the counter with the given name, creating it on first
// use. Re-registering an existing name with a different metric kind panics.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic("obs: " + name + " already registered with a different kind")
		}
		return c
	}
	c := &Counter{}
	r.metrics[name] = c
	r.help[name] = help
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic("obs: " + name + " already registered with a different kind")
		}
		return g
	}
	g := &Gauge{}
	r.metrics[name] = g
	r.help[name] = help
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket upper bounds (DefTimeBuckets when none are given).
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic("obs: " + name + " already registered with a different kind")
		}
		return h
	}
	if len(buckets) == 0 {
		buckets = DefTimeBuckets
	}
	ubs := append([]float64(nil), buckets...)
	sort.Float64s(ubs)
	h := &Histogram{buckets: ubs, counts: make([]uint64, len(ubs))}
	r.metrics[name] = h
	r.help[name] = help
	return h
}

// promName maps a dotted metric name onto the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// MetricValue is one entry of a Registry snapshot.
type MetricValue struct {
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	// Value is the counter/gauge value; for histograms, the sum of all
	// observations.
	Value float64
	// Count is the histogram observation count (0 for counters/gauges).
	Count uint64
}

// Snapshot returns a point-in-time copy of every registered metric, keyed
// by the dotted registration name (not the sanitized Prometheus name).
// Analyzers and tests should read values here instead of parsing the text
// exposition.
func (r *Registry) Snapshot() map[string]MetricValue {
	r.mu.Lock()
	metrics := make(map[string]interface{}, len(r.metrics))
	for n, m := range r.metrics {
		metrics[n] = m
	}
	r.mu.Unlock()
	out := make(map[string]MetricValue, len(metrics))
	for n, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			out[n] = MetricValue{Kind: "counter", Value: m.Value()}
		case *Gauge:
			out[n] = MetricValue{Kind: "gauge", Value: m.Value()}
		case *Histogram:
			out[n] = MetricValue{Kind: "histogram", Value: m.Sum(), Count: m.Count()}
		}
	}
	return out
}

// WriteProm renders the registry in the Prometheus text exposition format
// (v0.0.4). The output format is a stable contract:
//
//   - metric families appear in ascending order of their dotted
//     registration name (bytewise, i.e. sort.Strings);
//   - each family renders an optional "# HELP" line (only when help text
//     was registered), then "# TYPE", then its sample lines;
//   - dotted names are sanitized to the Prometheus charset by replacing
//     every character outside [a-zA-Z0-9_:] with '_' (explore.trials →
//     explore_trials);
//   - values are rendered with %g, +Inf as "+Inf";
//   - histograms emit cumulative "_bucket{le="..."}" lines in ascending
//     bound order, a final le="+Inf" bucket, then "_sum" and "_count".
//
// Identical registry contents therefore always produce byte-identical
// output; tools may diff expositions directly. Programs that only need
// values should use Snapshot instead of parsing this text.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type entry struct {
		name, help string
		m          interface{}
	}
	entries := make([]entry, 0, len(names))
	for _, n := range names {
		entries = append(entries, entry{n, r.help[n], r.metrics[n]})
	}
	r.mu.Unlock()

	for _, e := range entries {
		pn := promName(e.name)
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, e.help); err != nil {
				return err
			}
		}
		switch m := e.m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", pn, pn, promFloat(m.Value())); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			m.mu.Lock()
			ubs := append([]float64(nil), m.buckets...)
			counts := append([]uint64(nil), m.counts...)
			inf, sum, n := m.inf, m.sum, m.n
			m.mu.Unlock()
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
				return err
			}
			cum := uint64(0)
			for i, ub := range ubs {
				cum += counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(ub), cum); err != nil {
					return err
				}
			}
			cum += inf
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				pn, cum, pn, promFloat(sum), pn, n); err != nil {
				return err
			}
		}
	}
	return nil
}
