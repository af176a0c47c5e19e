package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// digest lists the simulated outcomes every run must reproduce
	// exactly; it is printed on the line before the result.
	digest string
}

// minSetups is how many set-ups a run times at least, so that setup_s is
// a median even when the budget holds a single segment.
const minSetups = 3

// tally accumulates a run's measurements. A run alternates set-ups and
// timed segments; throughput, latency and allocation count the segments
// only.
type tally struct {
	setupS   []float64       // wall time of each set-up
	opMs     []float64       // latency of each op
	opEnd    []time.Duration // each op's completion, from its segment's start
	windows  []window
	segStart time.Time
	timed    time.Duration
	rt       runtimeStats // runtime counter deltas over the segments
	liveMiB  []float64    // live heap at the end of each segment
	wiredS   []float64    // time to wired, per sample
	trials   []float64    // exploration trials to wired, per sample
	failed   int
}

// windowOps is the length of a window, in ops. Throughput and latency are
// medians over windows: host noise on a shared machine comes in bursts of
// a second or so, and a median over some thirty windows a run is steadier
// than one figure pooled over the run.
const windowOps = 250

// window is one window's throughput and latency percentiles.
type window struct{ rate, p50, p90 float64 }

func newTally() *tally {
	return &tally{opMs: make([]float64, 0, 1<<16), opEnd: make([]time.Duration, 0, 1<<16)}
}

// segment runs fn as one timed segment.
func (t *tally) segment(fn func()) {
	before := readRuntime()
	first := len(t.opMs)
	t.segStart = time.Now()
	fn()
	t.timed += time.Since(t.segStart)
	t.rt = t.rt.add(readRuntime().sub(before))
	t.cutWindows(first)
}

// op times one op of a segment.
func (t *tally) op(fn func()) {
	start := time.Now()
	fn()
	t.addOp(start, time.Now())
}

// addOp records an op of the running segment; ops are added in the order
// they completed.
func (t *tally) addOp(start, end time.Time) {
	t.opMs = append(t.opMs, ms(end.Sub(start)))
	t.opEnd = append(t.opEnd, end.Sub(t.segStart))
}

// cutWindows splits the ops of the segment that began at index first into
// windows; a remainder shorter than a window counts only in the pooled
// figures.
func (t *tally) cutWindows(first int) {
	lat, ends := t.opMs[first:], t.opEnd[first:]
	var prev time.Duration
	for i := 0; i+windowOps <= len(lat); i += windowOps {
		end := ends[i+windowOps-1]
		w := lat[i : i+windowOps]
		t.windows = append(t.windows, window{
			rate: windowOps / (end - prev).Seconds(),
			p50:  percentile(w, 50),
			p90:  percentile(w, 90),
		})
		prev = end
	}
}

// setupStart collects the previous segment's garbage, so every set-up
// starts from the same heap, and returns the set-up's start time.
func setupStart() time.Time {
	runtime.GC()
	return time.Now()
}

// another reports whether one more segment fits the budget: the first
// always runs, a later one only while the time used plus one mean segment
// stays within it.
func another(budget, used time.Duration, segments int) bool {
	return segments == 0 || used+used/time.Duration(segments) <= budget
}

// fail counts n failed output checks as failed ops.
func (t *tally) fail(n int, format string, args ...any) {
	if n > 0 {
		t.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// check counts one failed op unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.fail(1, format, args...)
	}
}

// measureLiveHeap records the heap in use after a forced collection; the
// caller keeps the workload's state reachable across the call.
func (t *tally) measureLiveHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.liveMiB = append(t.liveMiB, float64(ms.HeapAlloc)/(1<<20))
}

// endToEnd returns an untraced run's metrics.
func (t *tally) endToEnd() map[string]metric {
	ops := float64(len(t.opMs))
	ws := t.windows
	if len(ws) == 0 { // a test-scale run too short for one window
		ws = []window{{ops / t.timed.Seconds(), percentile(t.opMs, 50), percentile(t.opMs, 90)}}
	}
	rates, p50s, p90s := make([]float64, len(ws)), make([]float64, len(ws)), make([]float64, len(ws))
	for i, w := range ws {
		rates[i], p50s[i], p90s[i] = w.rate, w.p50, w.p90
	}
	return map[string]metric{
		"setup_s":         {median(t.setupS), "s"},
		"time_to_wired_s": {median(t.wiredS), "s"},
		"trials_to_wired": {median(t.trials), "count"},
		"ops_per_s":       {median(rates), "1/s"},
		"op_p50_ms":       {median(p50s), "ms"},
		"op_p90_ms":       {median(p90s), "ms"},
		"alloc_kb_per_op": {t.rt.allocBytes / 1024 / ops, "KiB"},
		"live_heap_mb":    {median(t.liveMiB), "MiB"},
	}
}

// report wraps the metrics with the op counts. extraOps are ops timed in
// another tally (a traced run's traced segments).
func (t *tally) report(metrics map[string]metric, digest string, extraOps int) (*report, error) {
	attempted := len(t.opMs) + extraOps
	if attempted == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return &report{
		Correct:   t.failed == 0,
		Attempted: attempted,
		Failed:    min(t.failed, attempted),
		Metrics:   metrics,
		digest:    digest,
	}, nil
}

// runtimeStats are cumulative Go runtime counters.
type runtimeStats struct {
	allocBytes, gcCycles, gcCPUs, totalCPUs float64
}

var runtimeMetricNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	var s [len(runtimeMetricNames)]metrics.Sample
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	var v [len(s)]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeStats{v[0], v[1], v[2], v[3]}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPUs + b.gcCPUs, a.totalCPUs + b.totalCPUs}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPUs - b.gcCPUs, a.totalCPUs - b.totalCPUs}
}
