package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("explore.trials", "exploration mini-batches")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %v", c.Value())
	}
	if r.Counter("explore.trials", "") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("profile.hit_rate", "")
	g.Set(0.75)
	g.Add(-0.25)
	if g.Value() != 0.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("batch.total_us", "", 10, 100, 1000)
	for _, v := range []float64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5555 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("x", "")
}

func TestCounterDecrementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter decrement")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("explore.trials", "exploration mini-batches").Add(42)
	r.Gauge("profile.hit_rate", "").Set(0.9)
	h := r.Histogram("batch.total_us", "batch time", 10, 100)
	h.Observe(7)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP explore_trials exploration mini-batches",
		"# TYPE explore_trials counter",
		"explore_trials 42",
		"# TYPE profile_hit_rate gauge",
		"profile_hit_rate 0.9",
		"# TYPE batch_total_us histogram",
		`batch_total_us_bucket{le="10"} 1`,
		`batch_total_us_bucket{le="100"} 2`,
		`batch_total_us_bucket{le="+Inf"} 3`,
		"batch_total_us_sum 5057",
		"batch_total_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Dotted names must be sanitized everywhere.
	if strings.Contains(out, "explore.trials") {
		t.Fatalf("unsanitized name in exposition:\n%s", out)
	}
	// Deterministic output: names sorted.
	if strings.Index(out, "batch_total_us") > strings.Index(out, "explore_trials") {
		t.Fatal("exposition not sorted by name")
	}
}

func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer()
	tr.SetProcessName(PIDDevice, "device")
	tr.SetProcessName(PIDDispatch, "cpu dispatch")
	tr.SetThreadName(PIDDevice, 0, "stream 0")
	tr.AddSpan(PIDDevice, 0, "gemm", "kernel", 10, 5, nil)
	tr.AddSpan(PIDDispatch, TIDBatches, "trial 1", "trial", 0, 20, map[string]interface{}{"v": "a"})
	tr.AddCounter(PIDExplore, "explore.trials", 20, map[string]float64{"trials": 1})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	var meta, spans, counters int
	for _, e := range trace.TraceEvents {
		switch e.Phase {
		case "M":
			meta++
		case "X":
			spans++
		case "C":
			counters++
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
	}
	if meta < 3 || spans != 2 || counters != 1 {
		t.Fatalf("meta=%d spans=%d counters=%d", meta, spans, counters)
	}
	// Metadata first, then data events sorted by ts.
	lastMeta := -1
	firstData := len(trace.TraceEvents)
	prevTs := -1.0
	for i, e := range trace.TraceEvents {
		if e.Phase == "M" {
			lastMeta = i
			continue
		}
		if i < firstData {
			firstData = i
		}
		if e.TimeUs < prevTs {
			t.Fatal("data events not sorted by ts")
		}
		prevTs = e.TimeUs
	}
	if lastMeta > firstData {
		t.Fatal("metadata events interleaved with data events")
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	events := []TrialEvent{
		{Batch: 1, Trial: 1, Phase: "explore", BatchUs: 100,
			Bindings: map[string]string{"g0.chunk": "2"},
			Metrics:  map[string]float64{"g0.chunk": 42.5}},
		{Batch: 2, Trial: 2, Phase: "explore", StartUs: 100, BatchUs: 90},
		{Batch: 3, Trial: 2, Phase: "wired", StartUs: 190, BatchUs: 80},
	}
	for _, ev := range events {
		if err := l.Emit(ev); err != nil {
			t.Fatal(err)
		}
	}
	if l.Count() != 3 {
		t.Fatalf("Count = %d", l.Count())
	}
	got, err := ReadTrialEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, wrote %d", len(got), len(events))
	}
	for i := range events {
		if got[i].Phase != events[i].Phase || got[i].Batch != events[i].Batch ||
			got[i].BatchUs != events[i].BatchUs {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
	if got[0].Bindings["g0.chunk"] != "2" || got[0].Metrics["g0.chunk"] != 42.5 {
		t.Fatalf("bindings/metrics lost: %+v", got[0])
	}
}

func TestEventLogDisabled(t *testing.T) {
	l := NewEventLog(nil)
	if err := l.Emit(TrialEvent{Batch: 1}); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 {
		t.Fatal("disabled log counted an emit")
	}
}

func TestReadTrialEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadTrialEvents(strings.NewReader("{\"batch\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestTelemetryConcurrency exercises the whole hot path from concurrent
// goroutines; `make race` turns this into the race-cleanliness gate the
// future multi-stream dispatcher depends on.
func TestTelemetryConcurrency(t *testing.T) {
	tel := NewTelemetry()
	tel.SetEventSink(&bytes.Buffer{})
	c := tel.Metrics.Counter("explore.trials", "")
	g := tel.Metrics.Gauge("profile.hit_rate", "")
	h := tel.Metrics.Histogram("batch.total_us", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j))
				tel.Trace.AddSpan(PIDDevice, id, "k", "kernel", float64(j), 1, nil)
				tel.Trace.AddCounter(PIDExplore, "explore.trials", float64(j), map[string]float64{"n": float64(j)})
				tel.Trace.SetThreadName(PIDDevice, id, "stream")
				_ = tel.Events.Emit(TrialEvent{Batch: j, Trial: id})
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Fatalf("counter = %v", c.Value())
	}
	if tel.Trace.Len() != 3200 {
		t.Fatalf("trace events = %d", tel.Trace.Len())
	}
	if tel.Events.Count() != 1600 {
		t.Fatalf("event log count = %d", tel.Events.Count())
	}
	var buf bytes.Buffer
	if err := tel.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tel.Metrics.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
}
