package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/obs"
)

func instrumentedSession(t *testing.T, name string) (*Session, *obs.Telemetry, *bytes.Buffer) {
	t.Helper()
	s := tinySession(t, name, enumerate.PresetAll, false)
	tel := obs.NewTelemetry()
	var events bytes.Buffer
	tel.SetEventSink(&events)
	s.Instrument(tel)
	return s, tel, &events
}

func TestSameSeedSessionsByteIdenticalTimelines(t *testing.T) {
	// Regression: superEpochBarrier used to iterate the used-stream map in
	// Go's randomized order while every RecordEvent/WaitEvent advances the
	// simulated CPU clock, so two identical runs could produce different
	// event timelines. Two same-seed sessions must now emit byte-identical
	// event logs — autoboost jitter, multi-stream barriers and all.
	run := func() []byte {
		build, ok := models.Get("sublstm")
		if !ok {
			t.Fatal("model sublstm")
		}
		m := build(models.TinyConfig("sublstm", 2))
		dev := gpusim.P100()
		dev.Autoboost = true
		s := NewSession(m, SessionConfig{
			Device:  dev,
			Options: enumerate.PresetOptions(enumerate.PresetAll),
			Runner:  RunnerConfig{PerOpCPUUs: 2},
		})
		tel := obs.NewTelemetry()
		var events bytes.Buffer
		tel.SetEventSink(&events)
		s.Instrument(tel)
		s.Explore()
		for i := 0; i < 3; i++ {
			s.Step()
		}
		return events.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed sessions produced different event timelines")
	}
}

func TestEventLogMatchesExplorerTrials(t *testing.T) {
	// Round trip: every exploration trial must produce exactly one JSONL
	// record, and its bindings must be the configuration the explorer had
	// staged (on the variables it was measuring) before the batch ran.
	s, _, events := instrumentedSession(t, "sublstm")
	var wantBindings []map[string]string
	for !s.Done() {
		staged := map[string]string{}
		for _, v := range s.Exp.Vars() {
			if v.Recording() {
				staged[v.ID] = v.CurrentLabel()
			}
		}
		wantBindings = append(wantBindings, staged)
		s.Step()
	}
	s.Step() // one wired batch, to check phase separation

	got, err := obs.ReadTrialEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	var explore, wired []obs.TrialEvent
	for _, ev := range got {
		switch ev.Phase {
		case "explore":
			explore = append(explore, ev)
		case "wired":
			wired = append(wired, ev)
		default:
			t.Fatalf("unknown phase %q", ev.Phase)
		}
	}
	if len(explore) != s.Trials || len(explore) != len(wantBindings) {
		t.Fatalf("explore records = %d, trials = %d, staged = %d",
			len(explore), s.Trials, len(wantBindings))
	}
	if len(wired) != 1 {
		t.Fatalf("wired records = %d", len(wired))
	}
	for i, ev := range explore {
		if ev.Trial != i+1 {
			t.Fatalf("record %d has trial %d", i, ev.Trial)
		}
		if len(ev.Bindings) != len(wantBindings[i]) {
			t.Fatalf("trial %d: %d bindings, want %d", ev.Trial, len(ev.Bindings), len(wantBindings[i]))
		}
		for id, label := range wantBindings[i] {
			if ev.Bindings[id] != label {
				t.Fatalf("trial %d: binding %s = %q, explorer staged %q",
					ev.Trial, id, ev.Bindings[id], label)
			}
		}
		if ev.BatchUs <= 0 || ev.Kernels <= 0 {
			t.Fatalf("trial %d: empty batch stats %+v", ev.Trial, ev)
		}
	}
	// The timeline must be contiguous on the session clock.
	clock := 0.0
	for _, ev := range got {
		if ev.StartUs != clock {
			t.Fatalf("batch %d starts at %v, clock at %v", ev.Batch, ev.StartUs, clock)
		}
		clock += ev.BatchUs
	}
	if clock != s.ClockUs {
		t.Fatalf("event clock %v != session clock %v", clock, s.ClockUs)
	}
}

func TestSessionTraceHasNamedTracks(t *testing.T) {
	s, tel, _ := instrumentedSession(t, "scrnn")
	s.Explore()
	s.Step()
	s.CloseTelemetry()
	var buf bytes.Buffer
	if err := tel.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace obs.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	procs := map[string]bool{}
	counterTracks := map[string]bool{}
	sessionSpan, kernelSpans, dispatchSpans := false, 0, 0
	for _, e := range trace.TraceEvents {
		switch {
		case e.Phase == "M" && e.Name == "process_name":
			procs[e.Args["name"].(string)] = true
		case e.Phase == "C":
			counterTracks[e.Name] = true
		case e.Phase == "X" && e.Category == "session":
			sessionSpan = true
		case e.Phase == "X" && e.Category == "kernel":
			kernelSpans++
		case e.Phase == "X" && e.Category == "dispatch":
			dispatchSpans++
		}
	}
	// The acceptance bar: >= 3 named track groups — device streams, CPU
	// dispatch and the exploration counters (plus the launch queue).
	for _, want := range []string{"device", "launch queue", "cpu dispatch", "exploration"} {
		if !procs[want] {
			t.Fatalf("trace missing process %q (have %v)", want, procs)
		}
	}
	for _, want := range []string{"explore.trials", "explore.frozen_vars", "batch.total_us", "profile.hit_rate"} {
		if !counterTracks[want] {
			t.Fatalf("trace missing counter track %q (have %v)", want, counterTracks)
		}
	}
	if !sessionSpan {
		t.Fatal("no session root span")
	}
	if kernelSpans == 0 || dispatchSpans == 0 {
		t.Fatalf("kernel spans = %d, dispatch spans = %d", kernelSpans, dispatchSpans)
	}
}

func TestSessionMetricsRegistry(t *testing.T) {
	s, tel, _ := instrumentedSession(t, "sublstm")
	s.Explore()
	s.Step()
	reg := tel.Metrics
	if got := reg.Counter("explore.trials", "").Value(); got != float64(s.Trials) {
		t.Fatalf("explore.trials = %v, session trials = %d", got, s.Trials)
	}
	frozen, total := s.Exp.FrozenCount()
	if frozen != total {
		t.Fatalf("converged session has %d/%d frozen", frozen, total)
	}
	if got := reg.Gauge("explore.frozen_vars", "").Value(); got != float64(frozen) {
		t.Fatalf("explore.frozen_vars = %v, want %d", got, frozen)
	}
	simUs := reg.Counter("session.sim_time_us", "").Value()
	if simUs != s.ClockUs {
		t.Fatalf("session.sim_time_us = %v, clock = %v", simUs, s.ClockUs)
	}
	overhead := reg.Counter("wirer.profiling_overhead_us", "").Value()
	if overhead != s.ProfOverheadUs {
		t.Fatalf("wirer.profiling_overhead_us = %v, session total = %v", overhead, s.ProfOverheadUs)
	}
	// §6.4: the always-on profiling must stay under 0.5% of simulated time
	// across the whole session, not just one batch.
	if frac := overhead / simUs; frac >= 0.005 {
		t.Fatalf("session profiling overhead %.3f%% >= 0.5%%", frac*100)
	}
	if h := reg.Histogram("batch.total_us", ""); int(h.Count()) != s.Batches {
		t.Fatalf("batch.total_us count = %d, batches = %d", h.Count(), s.Batches)
	}
	// Prometheus exposition renders without error and includes the session
	// metrics.
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"explore_trials", "profile_hit_rate", "batch_total_us_bucket", "wirer_profiling_overhead_us"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %s:\n%s", want, buf.String())
		}
	}
}

func TestConvergenceTimelineCoversAllVars(t *testing.T) {
	s, _, _ := instrumentedSession(t, "stackedlstm")
	s.Explore()
	points := s.Exp.ConvergenceTimeline()
	if len(points) != len(s.Exp.Vars()) {
		t.Fatalf("timeline has %d points for %d vars", len(points), len(s.Exp.Vars()))
	}
	last := 0
	for _, p := range points {
		if p.Trial < last {
			t.Fatal("timeline not sorted by trial")
		}
		last = p.Trial
		if p.Trial > s.Trials {
			t.Fatalf("%s froze at trial %d > total %d", p.VarID, p.Trial, s.Trials)
		}
	}
	if last != s.Trials {
		t.Fatalf("last variable froze at trial %d, exploration took %d", last, s.Trials)
	}
}

func TestTraceDetailCap(t *testing.T) {
	// Kernel-level spans are bounded to traceDetailBatches exploration
	// batches so paper-scale sessions stay Perfetto-loadable; trial spans
	// keep covering every batch regardless.
	s, tel, _ := instrumentedSession(t, "sublstm")
	cutoff := 0.0
	for i := 0; i < traceDetailBatches; i++ {
		cutoff += s.Step().TotalUs // detail batches
	}
	past := 0
	for ; past < 3 && !s.Done(); past++ {
		s.Step() // past the cap: no kernel spans
	}
	if past == 0 {
		t.Fatal("exploration ended within the detail cap; nothing past it to check")
	}
	kernels, trialSpans := 0, 0
	for _, e := range tel.Trace.Events() {
		switch e.Category {
		case "kernel":
			kernels++
			if e.TimeUs >= cutoff {
				t.Fatalf("kernel span at %v past detail cutoff %v", e.TimeUs, cutoff)
			}
		case "explore":
			trialSpans++
		}
	}
	if kernels == 0 {
		t.Fatal("no kernel spans from the detail batches")
	}
	if trialSpans != s.Batches {
		t.Fatalf("trial spans = %d, batches = %d", trialSpans, s.Batches)
	}
}

func TestUninstrumentedSessionUnchanged(t *testing.T) {
	// Telemetry off: identical simulated times (the instrumentation reads
	// clocks, it never advances them).
	plain := tinySession(t, "sublstm", enumerate.PresetAll, false)
	plain.Explore()
	plainWired := plain.Step().TotalUs

	inst, _, _ := instrumentedSession(t, "sublstm")
	inst.Explore()
	instWired := inst.Step().TotalUs
	if plainWired != instWired {
		t.Fatalf("telemetry changed simulated time: %v != %v", instWired, plainWired)
	}
	if plain.Trials != inst.Trials {
		t.Fatalf("telemetry changed trial count: %d != %d", inst.Trials, plain.Trials)
	}
}
