package wire

import (
	"bytes"
	"strings"
	"testing"

	"astra/internal/adapt"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/profile"
	"astra/internal/tensor"
)

// recordingPrior counts the prior callbacks a session issues without ever
// giving advice — attaching it must not change exploration at all.
type recordingPrior struct {
	observed    int
	invalidated int
}

func (r *recordingPrior) Plan(ctx, varID string, labels []string) adapt.PriorPlan {
	return adapt.PriorPlan{}
}
func (r *recordingPrior) Observe(ctx, varID, label string, us float64) { r.observed++ }
func (r *recordingPrior) Invalidate()                                  { r.invalidated++ }

func tinySession(t *testing.T, name string, preset enumerate.Preset, eval bool) *Session {
	t.Helper()
	build, ok := models.Get(name)
	if !ok {
		t.Fatalf("model %q", name)
	}
	m := build(models.TinyConfig(name, 2))
	return NewSession(m, SessionConfig{
		Device:     gpusim.P100(),
		Options:    enumerate.PresetOptions(preset),
		Runner:     RunnerConfig{PerOpCPUUs: 2},
		EvalValues: eval,
	})
}

func TestExplorationConvergesAllModels(t *testing.T) {
	for _, name := range models.Names() {
		s := tinySession(t, name, enumerate.PresetAll, false)
		trials := s.Explore()
		if trials <= 0 {
			t.Errorf("%s: no exploration trials", name)
		}
		if !s.Done() {
			t.Errorf("%s: not converged", name)
		}
		for _, v := range s.Exp.Vars() {
			if !v.Frozen() {
				t.Errorf("%s: var %s not frozen", name, v.ID)
			}
		}
	}
}

func TestValuePreservationDuringExploration(t *testing.T) {
	// Work conservation (§4.2): every exploration mini-batch computes
	// exactly what the unoptimized graph computes. Compare each trial's
	// loss against the reference executor, bit for bit.
	for _, name := range models.Names() {
		s := tinySession(t, name, enumerate.PresetAll, true)
		for i := 0; i < 30 && !s.Done(); i++ {
			seed := s.batchSeed
			res := s.Step()
			want := s.Model.G.Run(s.Model.MakeInputs(seed), s.Params)
			got := res.Env[s.Model.G.Loss].Data()[0]
			ref := want[s.Model.G.Loss].Data()[0]
			if got != ref {
				t.Fatalf("%s trial %d: loss %v != reference %v", name, i, got, ref)
			}
		}
	}
}

func TestValuePreservationAfterWiring(t *testing.T) {
	s := tinySession(t, "sublstm", enumerate.PresetAll, true)
	s.Explore()
	seed := s.batchSeed
	res := s.Step()
	ref := s.Model.G.Run(s.Model.MakeInputs(seed), s.Params)
	if res.Env[s.Model.G.Loss].Data()[0] != ref[s.Model.G.Loss].Data()[0] {
		t.Fatal("wired schedule changed the loss")
	}
	// Gradients too: value preservation must cover the backward pass.
	for p, gv := range s.Model.G.Grads {
		if tensor.MaxAbsDiff(res.Env[gv], ref[gv]) != 0 {
			t.Fatalf("gradient of %s differs under wired schedule", p.Name)
		}
	}
}

func TestWiredConfigBeatsDefault(t *testing.T) {
	// The measured best configuration must not be slower than the default
	// (first) configuration — measurement picked it.
	for _, name := range []string{"scrnn", "sublstm"} {
		s := tinySession(t, name, enumerate.PresetAll, false)
		first := s.Step() // default configuration, observed by explorer
		s.Explore()
		wired := s.Step()
		if wired.TotalUs > first.TotalUs*1.01 {
			t.Errorf("%s: wired %0.1fus slower than default %0.1fus", name, wired.TotalUs, first.TotalUs)
		}
	}
}

func TestWiredDeterministic(t *testing.T) {
	s := tinySession(t, "milstm", enumerate.PresetAll, false)
	s.Explore()
	a := s.Step().TotalUs
	b := s.Step().TotalUs
	if a != b {
		t.Fatalf("wired batches differ: %v vs %v", a, b)
	}
}

func TestDriftWatchdogBoundaries(t *testing.T) {
	// The watchdog's fixed tuning, pinned at its edges: an EWMA exactly
	// driftTolerance (8%) off the wired expectation is no breach; above it,
	// the driftPatience-th (3rd) consecutive breach fires and the 2nd does
	// not; an in-tolerance batch resets the streak. With driftAlpha 0.25
	// and an expectation of 100, feeding b moves the EWMA e to
	// 0.25·b + 0.75·e.
	s := tinySession(t, "scrnn", enumerate.PresetF, false)
	s.Watchdog = true
	s.Explore()
	feed := func(batchUs float64, wantFire bool, breaches int) {
		t.Helper()
		if got := s.observeWired(batchUs); got != wantFire {
			t.Fatalf("observeWired(%v) fired = %v, want %v", batchUs, got, wantFire)
		}
		if s.driftBreach != breaches {
			t.Fatalf("after %v: breach streak %d, want %d", batchUs, s.driftBreach, breaches)
		}
	}
	feed(100, false, 0) // freezes the expectation at 100
	feed(132, false, 0) // EWMA 108: exactly at tolerance
	feed(116, false, 1) // EWMA 110
	feed(110, false, 2)
	feed(100, false, 0) // EWMA 107.5: back in tolerance, streak resets
	feed(125, false, 1) // EWMA 111.875
	feed(112, false, 2)
	if s.DriftEvents != 0 || !s.Done() {
		t.Fatalf("fired before the 3rd breach: events %d, done %v", s.DriftEvents, s.Done())
	}
	feed(112, true, 0)
	if s.DriftEvents != 1 || s.Done() {
		t.Fatalf("3rd breach: events %d, done %v; want 1 event and a thawed explorer", s.DriftEvents, s.Done())
	}
}

func TestDriftWatchdogThawsAndRewiresInSession(t *testing.T) {
	// End-to-end §4.6 drift story: explore → wire → clock throttles
	// mid-wired-phase → watchdog detects sustained deviation → explorer
	// thaws, stale measurements are evicted, exploration re-runs and a new
	// configuration is wired — all inside one session, no restart.
	build, _ := models.Get("sublstm")
	// Short sequence keeps exploration fast; a wide hidden dim keeps the
	// batch GPU-bound, so a clock throttle actually moves the batch time
	// (a dispatch-bound tiny model hides kernel slowdowns entirely).
	cfg := models.Config{Batch: 16, SeqLen: 4, Hidden: 2048, Embed: 256, Vocab: 100, Embedding: true, Backward: true}
	mkSession := func(faults gpusim.FaultConfig, prior adapt.Prior) *Session {
		dev := gpusim.P100()
		dev.Faults = faults
		return NewSession(build(cfg), SessionConfig{
			Device:  dev,
			Options: enumerate.PresetOptions(enumerate.PresetFKS),
			Runner:  RunnerConfig{PerOpCPUUs: 2},
			Prior:   prior,
		})
	}

	// Dry run to learn how many batches exploration takes for this model,
	// so the throttle window can be placed a few batches into wired phase.
	dry := mkSession(gpusim.FaultConfig{}, nil)
	dry.Explore()

	// The attached prior must see the whole story too: observations during
	// both explorations, and an Invalidate when the thaw evicts the
	// measurements it was trained on (docs/COSTMODEL.md, drift feedback).
	rec := &recordingPrior{}
	s := mkSession(gpusim.FaultConfig{
		ThrottleStartBatch: dry.Batches + 5,
		ThrottleFactor:     1.5, // open-ended window: throttled to session end
	}, rec)
	s.Watchdog = true

	firstTrials := s.Explore()
	if firstTrials != dry.Trials {
		t.Fatalf("fault-config session explored %d trials, dry run %d", firstTrials, dry.Trials)
	}
	fedCold := rec.observed
	if fedCold == 0 {
		t.Fatal("prior saw no observations during exploration")
	}
	if rec.invalidated != 0 {
		t.Fatalf("prior invalidated %d times before any drift", rec.invalidated)
	}
	preDrift := s.Step().TotalUs
	for i := 0; i < 100 && s.DriftEvents == 0; i++ {
		s.Step()
	}
	if s.DriftEvents != 1 {
		t.Fatalf("drift watchdog did not fire (events = %d)", s.DriftEvents)
	}
	if s.Done() {
		t.Fatal("explorer not thawed after drift event")
	}
	if s.Exp.Reexplorations() != 1 {
		t.Fatalf("reexplorations = %d, want 1", s.Exp.Reexplorations())
	}
	if rec.invalidated != 1 {
		t.Fatalf("drift thaw invalidated the prior %d times, want 1", rec.invalidated)
	}
	// Re-exploration must converge again under the throttled clock…
	extra := s.Explore()
	if s.Err() != nil {
		t.Fatalf("re-exploration failed: %v", s.Err())
	}
	if extra <= firstTrials {
		t.Fatalf("total trials %d did not grow past first exploration %d", extra, firstTrials)
	}
	if rec.observed <= fedCold {
		t.Fatalf("re-exploration fed the prior no fresh measurements (%d then, %d now)", fedCold, rec.observed)
	}
	// …and the re-wired schedule runs stably: the watchdog re-arms on the
	// new expectation, so the (still throttled) steady state is not drift.
	post := s.Step().TotalUs
	if post <= preDrift {
		t.Fatalf("throttled wired batch %v not slower than pre-drift %v", post, preDrift)
	}
	for i := 0; i < 20; i++ {
		s.Step()
	}
	if s.DriftEvents != 1 {
		t.Fatalf("watchdog re-fired on stable throttled clock (events = %d)", s.DriftEvents)
	}
	if !s.Done() {
		t.Fatal("session did not re-converge")
	}
}

func TestMetricsCoverRecordingVars(t *testing.T) {
	s := tinySession(t, "stackedlstm", enumerate.PresetAll, false)
	for i := 0; i < 5 && !s.Done(); i++ {
		res := s.Runner.RunBatch(nil, nil)
		for _, v := range s.Exp.Vars() {
			if v.Recording() {
				if _, ok := res.Metrics[v.ID]; !ok {
					t.Fatalf("no metric for recording var %s", v.ID)
				}
			}
		}
		s.Exp.Observe(res.Metrics)
		s.Exp.Advance()
	}
}

func TestPresetsMonotoneOnWiredTime(t *testing.T) {
	// More adaptation dimensions must never make the wired schedule
	// slower (the explorer can always keep the previous best).
	times := map[enumerate.Preset]float64{}
	for _, p := range []enumerate.Preset{enumerate.PresetF, enumerate.PresetFK, enumerate.PresetFKS, enumerate.PresetAll} {
		s := tinySession(t, "sublstm", p, false)
		s.Explore()
		times[p] = s.Step().TotalUs
	}
	if times[enumerate.PresetFK] > times[enumerate.PresetF]*1.02 {
		t.Errorf("FK (%v) slower than F (%v)", times[enumerate.PresetFK], times[enumerate.PresetF])
	}
	if times[enumerate.PresetFKS] > times[enumerate.PresetFK]*1.02 {
		t.Errorf("FKS (%v) slower than FK (%v)", times[enumerate.PresetFKS], times[enumerate.PresetFK])
	}
	if times[enumerate.PresetAll] > times[enumerate.PresetFKS]*1.02 {
		t.Errorf("All (%v) slower than FKS (%v)", times[enumerate.PresetAll], times[enumerate.PresetFKS])
	}
}

func TestSchedulePreservesDependencies(t *testing.T) {
	// The eval path panics if any dispatched node reads an unbound value:
	// driving every exploration configuration with values on is a full
	// dependency check of every schedule tried.
	s := tinySession(t, "gnmt", enumerate.PresetAll, true)
	for i := 0; i < 40 && !s.Done(); i++ {
		s.Step()
	}
}

func TestProfilingOverheadSmall(t *testing.T) {
	// §6.4: always-on profiling costs <0.5% — check at paper scale.
	m := models.SCRNN(models.DefaultConfig("scrnn", 32))
	s := NewSession(m, SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetAll),
		Runner:  RunnerConfig{PerOpCPUUs: 2},
	})
	res := s.Step()
	frac := res.ProfilingOverheadUs() / res.TotalUs
	if frac >= 0.005 {
		t.Fatalf("profiling overhead %.3f%% >= 0.5%%", frac*100)
	}
	if res.Events == 0 {
		t.Fatal("profiling recorded no events")
	}
}

func TestTrainingLoopWithSGD(t *testing.T) {
	s := tinySession(t, "scrnn", enumerate.PresetFK, true)
	s.LearningRate = 0.2
	first := s.Step()
	for i := 0; i < 15; i++ {
		s.Step()
	}
	last := s.Step()
	l0 := first.Env[s.Model.G.Loss].Data()[0]
	l1 := last.Env[s.Model.G.Loss].Data()[0]
	if l1 >= l0 {
		t.Fatalf("training did not reduce loss: %v -> %v", l0, l1)
	}
}

func TestSessionWithoutTree(t *testing.T) {
	// No adaptation dimensions at all: the session degenerates to a fixed
	// dispatcher.
	m := models.SCRNN(models.TinyConfig("scrnn", 2))
	s := NewSession(m, SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.Options{},
		Runner:  RunnerConfig{PerOpCPUUs: 2},
	})
	if !s.Done() || s.Explore() != 0 {
		t.Fatal("tree-less session should be immediately done")
	}
	if s.Step().TotalUs <= 0 {
		t.Fatal("no time simulated")
	}
}

func TestScheduleReport(t *testing.T) {
	s := tinySession(t, "stackedlstm", enumerate.PresetAll, false)
	s.Explore()
	r := s.Report()
	if r.Alloc == "" || len(r.Groups) == 0 {
		t.Fatalf("empty report: %+v", r)
	}
	if r.SuperEpochs == 0 || r.Epochs < r.SuperEpochs {
		t.Fatalf("bad epoch counts: %+v", r)
	}
	if len(r.StreamSplit) < 2 {
		t.Fatalf("stream adaptation produced no split: %v", r.StreamSplit)
	}
	fused := 0
	for _, g := range r.Groups {
		if g.Chunk != "1" {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("wired schedule fused nothing")
	}
	txt := r.String()
	for _, want := range []string{"allocation strategy:", "stream assignment:", "fusion groups:"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("report missing %q:\n%s", want, txt)
		}
	}
}

func TestWarmStartFromSavedIndex(t *testing.T) {
	// Explore once, snapshot the profile index, start a fresh session of
	// the same job with it: exploration completes with zero new trials and
	// the wired schedule matches.
	cold := tinySession(t, "sublstm", enumerate.PresetFKS, false)
	cold.Explore()
	coldWired := cold.Step().TotalUs

	var buf bytes.Buffer
	if err := cold.Ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix := profile.NewIndex()
	if err := ix.Load(&buf); err != nil {
		t.Fatal(err)
	}

	build, _ := models.Get("sublstm")
	m2 := build(models.TinyConfig("sublstm", 2))
	warm := NewSession(m2, SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetFKS),
		Runner:  RunnerConfig{PerOpCPUUs: 2},
		Index:   ix,
	})
	if !warm.Done() {
		t.Fatal("warm session should be converged before any trial")
	}
	if trials := warm.Explore(); trials != 0 {
		t.Fatalf("warm exploration ran %d trials", trials)
	}
	if w := warm.Step().TotalUs; w != coldWired {
		t.Fatalf("warm wired %v != cold wired %v", w, coldWired)
	}
}

func TestFourStreamAdaptation(t *testing.T) {
	// NumStreams > 2: moved units spread across the auxiliary streams;
	// the wired schedule must not be slower than the 2-stream one (the
	// explorer can always leave streams unused).
	build, _ := models.Get("sublstm")
	wired := map[int]float64{}
	for _, streams := range []int{2, 4} {
		m := build(models.TinyConfig("sublstm", 2))
		opts := enumerate.PresetOptions(enumerate.PresetFKS)
		opts.NumStreams = streams
		s := NewSession(m, SessionConfig{
			Device:  gpusim.P100(),
			Options: opts,
			Runner:  RunnerConfig{PerOpCPUUs: 2},
		})
		s.Explore()
		wired[streams] = s.Step().TotalUs
		if got := s.Runner.Dev.NumStreams(); got < streams {
			t.Fatalf("device has %d streams, want >= %d", got, streams)
		}
	}
	if wired[4] > wired[2]*1.02 {
		t.Fatalf("4 streams (%v) slower than 2 (%v)", wired[4], wired[2])
	}
}
