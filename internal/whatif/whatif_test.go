package whatif

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"astra/internal/analyze"
	"astra/internal/enumerate"
	"astra/internal/job"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/serve"
	"astra/internal/wire"
)

// recordRun records a fresh tiny session end-to-end and returns its event
// log: explore to convergence, then `wired` post-exploration batches.
func recordRun(t *testing.T, model string, preset enumerate.Preset, workers int, fabric string, wired int) []obs.TrialEvent {
	t.Helper()
	level, _ := job.LevelOf(preset)
	shape, err := job.Shape{Model: model, Scale: job.Tiny, Batch: 4, Level: level, Workers: workers, Fabric: fabric}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := wire.NewSession(shape.Build(), shape.SessionConfig())
	var buf bytes.Buffer
	tel := obs.NewTelemetry()
	tel.SetEventSink(&buf)
	s.Instrument(tel)
	s.Explore()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	for i := 0; i < wired; i++ {
		s.Step()
	}
	events, err := obs.ReadTrialEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reading events: %v", err)
	}
	return events
}

// TestIdentityExactEveryModel is the engine's foundational property: with
// no perturbation, the replay reproduces every recorded batch time of
// every model bit-for-bit — zero tolerance. The predicted log must also
// survive the analyzer's exact reconciliation (Verify).
func TestIdentityExactEveryModel(t *testing.T) {
	for _, model := range models.Names() {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			events := recordRun(t, model, enumerate.PresetFK, 1, "", 2)
			pred, err := Predict(events, Scenario{Name: "identity"})
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			for i, b := range pred.Batches {
				if b.PredictedUs != b.RecordedUs {
					t.Fatalf("batch %d (%s): predicted %v != recorded %v", i, b.Phase, b.PredictedUs, b.RecordedUs)
				}
			}
			if pred.PredictedWiredUs != pred.RecordedWiredUs {
				t.Fatalf("wired: predicted %v != recorded %v", pred.PredictedWiredUs, pred.RecordedWiredUs)
			}
			if pred.SpeedupX != 1 {
				t.Fatalf("identity speedup %v, want exactly 1", pred.SpeedupX)
			}
			run, err := analyze.AnalyzeRun(pred.Events, 1)
			if err != nil {
				t.Fatalf("analyzing predicted log: %v", err)
			}
			if err := analyze.Verify(run); err != nil {
				t.Fatalf("predicted log fails exact reconciliation: %v", err)
			}
		})
	}
}

// TestIdentityExactEveryPreset covers the remaining enumeration presets on
// one model (FK is covered for all models above).
func TestIdentityExactEveryPreset(t *testing.T) {
	for _, preset := range []enumerate.Preset{enumerate.PresetF, enumerate.PresetFKS, enumerate.PresetAll} {
		preset := preset
		t.Run(string(preset), func(t *testing.T) {
			t.Parallel()
			events := recordRun(t, "sublstm", preset, 1, "", 2)
			pred, err := Predict(events, Scenario{Name: "identity"})
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			for i, b := range pred.Batches {
				if b.PredictedUs != b.RecordedUs {
					t.Fatalf("batch %d: predicted %v != recorded %v", i, b.PredictedUs, b.RecordedUs)
				}
			}
		})
	}
}

// TestIdentityExactMultiWorker: the identity property must hold through
// the comm lane too (waits binding compute streams to exchange kernels).
func TestIdentityExactMultiWorker(t *testing.T) {
	t.Parallel()
	events := recordRun(t, "sublstm", enumerate.PresetFK, 2, "pcie3", 2)
	pred, err := Predict(events, Scenario{Name: "identity"})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	for i, b := range pred.Batches {
		if b.PredictedUs != b.RecordedUs {
			t.Fatalf("batch %d (%s): predicted %v != recorded %v", i, b.Phase, b.PredictedUs, b.RecordedUs)
		}
	}
	if run, err := analyze.AnalyzeRun(pred.Events, 1); err != nil {
		t.Fatalf("analyzing predicted log: %v", err)
	} else if err := analyze.Verify(run); err != nil {
		t.Fatalf("predicted multi-worker log fails reconciliation: %v", err)
	}
}

// TestSpeedupMonotone: speeding a class up more never lengthens the
// predicted wall — exactly, for every batch, not just within epsilon.
func TestSpeedupMonotone(t *testing.T) {
	t.Parallel()
	events := recordRun(t, "sublstm", enumerate.PresetFK, 1, "", 2)
	for _, class := range []string{obs.ClassGEMM, obs.ClassEW} {
		prev := make([]float64, len(events))
		for i := range events {
			prev[i] = events[i].BatchUs
		}
		for _, f := range []float64{1, 1.3, 2, 4, 16} {
			pred, err := Predict(events, NewScenario(Perturbation{Speedups: map[string]float64{class: f}}))
			if err != nil {
				t.Fatalf("class %s x%v: %v", class, f, err)
			}
			for i, b := range pred.Batches {
				if b.PredictedUs > prev[i] {
					t.Fatalf("class %s x%v batch %d: predicted %v > previous factor's %v", class, f, i, b.PredictedUs, prev[i])
				}
				prev[i] = b.PredictedUs
			}
		}
	}
}

// TestCheckMatrixWithinTolerance is the acceptance gate: replay
// predictions land within 5% of real re-simulation across fabrics × ring
// sizes, and the identity cell is exact.
func TestCheckMatrixWithinTolerance(t *testing.T) {
	t.Parallel()
	scenarios := MatrixScenarios([]string{"pcie3", "nvlink1"}, []int{1, 2, 4})
	scenarios = append(scenarios,
		NewScenario(Perturbation{Speedups: map[string]float64{obs.ClassGEMM: 2}}),
		NewScenario(Perturbation{LaunchFactor: 0.5}),
	)
	rep, err := SelfCheck(job.Shape{Model: "sublstm", Scale: job.Tiny, Batch: 4, Level: "FK", Workers: 2, Fabric: "pcie3"}, 2, scenarios, 5)
	if err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("check failed:\n%s", strings.Join(rep.Failures, "\n"))
	}
	if rep.Cells[0].Scenario != "identity" || rep.Cells[0].ErrPct != 0 {
		t.Fatalf("identity cell not exact: %+v", rep.Cells[0])
	}
	if rep.BaseSimulatedUs != rep.BaseRecordedUs {
		t.Fatalf("base reproduction not exact: %+v", rep)
	}
}

// TestCheckSingleGPUSpeedups validates class-speedup and launch-overhead
// scenarios against ground truth on a single-GPU recording.
func TestCheckSingleGPUSpeedups(t *testing.T) {
	t.Parallel()
	scenarios := []Scenario{
		{Name: "identity"},
		NewScenario(Perturbation{Speedups: map[string]float64{obs.ClassGEMM: 2}}),
		NewScenario(Perturbation{Speedups: map[string]float64{obs.ClassEW: 4}}),
		NewScenario(Perturbation{LaunchFactor: 0.5}),
		NewScenario(Perturbation{LaunchFactor: 2}),
	}
	rep, err := SelfCheck(job.Shape{Model: "scrnn", Scale: job.Tiny, Batch: 4, Level: "FK", Workers: 1}, 2, scenarios, 5)
	if err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("check failed:\n%s", strings.Join(rep.Failures, "\n"))
	}
}

// TestPredictMatrixDeterministic: the scenario fan-out is byte-identical
// at any parallelism.
func TestPredictMatrixDeterministic(t *testing.T) {
	t.Parallel()
	events := recordRun(t, "milstm", enumerate.PresetFK, 2, "pcie3", 1)
	scenarios := MatrixScenarios([]string{"pcie3", "nvlink1"}, []int{1, 2, 8})
	scenarios = append(scenarios, NewScenario(Perturbation{Speedups: map[string]float64{obs.ClassGEMM: 2}, LaunchFactor: 0.5}))
	marshal := func(par int) []byte {
		preds, err := PredictMatrix(events, scenarios, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		b, err := json.Marshal(preds)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	one := marshal(1)
	four := marshal(4)
	if !bytes.Equal(one, four) {
		t.Fatal("PredictMatrix output differs between -parallel 1 and 4")
	}
}

// TestBucketFactorReplay: bucket re-scaling replays (amortized) but is
// rejected by Check.
func TestBucketFactorReplay(t *testing.T) {
	t.Parallel()
	events := recordRun(t, "sublstm", enumerate.PresetFK, 2, "pcie3", 1)
	pred, err := Predict(events, NewScenario(Perturbation{BucketFactor: 2}))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pred.PredictedWiredUs <= 0 {
		t.Fatalf("bucket replay produced non-positive wall %v", pred.PredictedWiredUs)
	}
	if _, err := Check(events, []Scenario{NewScenario(Perturbation{BucketFactor: 2})}, 5, 1); err == nil {
		t.Fatal("Check accepted a bucket-size scenario; want replay-only rejection")
	}
}

// TestValidationErrors: malformed perturbations fail loudly with the valid
// choices in the message, never silently no-op.
func TestValidationErrors(t *testing.T) {
	t.Parallel()
	single := recordRun(t, "sublstm", enumerate.PresetF, 1, "", 1)
	cases := []struct {
		name string
		pert Perturbation
		want string
	}{
		{"unknown class", Perturbation{Speedups: map[string]float64{"gem": 2}}, "unknown kernel class"},
		{"class list in error", Perturbation{Speedups: map[string]float64{"gem": 2}}, obs.ClassGEMM},
		{"non-positive factor", Perturbation{Speedups: map[string]float64{obs.ClassGEMM: -1}}, "must be positive"},
		{"unknown fabric", Perturbation{Fabric: "infiniband"}, "unknown fabric"},
		{"fabric list in error", Perturbation{Fabric: "infiniband"}, "pcie3"},
		{"negative launch", Perturbation{LaunchFactor: -2}, "must be positive"},
		{"comm on single gpu", Perturbation{Workers: 4}, "single-GPU"},
	}
	for _, tc := range cases {
		_, err := Predict(single, Scenario{Name: tc.name, Pert: tc.pert})
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := Predict(nil, Scenario{Name: "identity"}); err == nil {
		t.Fatal("empty log: no error")
	}
}

// TestParseSpeedup covers the CLI spec grammar.
func TestParseSpeedup(t *testing.T) {
	t.Parallel()
	class, f, err := ParseSpeedup("class=gemm,factor=2")
	if err != nil || class != "gemm" || f != 2 {
		t.Fatalf("got (%q, %v, %v)", class, f, err)
	}
	class, f, err = ParseSpeedup(" factor = 0.5 , class = ew ")
	if err != nil || class != "ew" || f != 0.5 {
		t.Fatalf("got (%q, %v, %v)", class, f, err)
	}
	bad := []struct{ spec, want string }{
		{"class=gemm", "both class= and factor= are required"},
		{"factor=2", "both class= and factor= are required"},
		{"class=nope,factor=2", "unknown kernel class"},
		{"class=gemm,factor=zero", "not a number"},
		{"class=gemm,factor=0", "must be positive"},
		{"class=gemm,factor=-3", "must be positive"},
		{"class=gemm,speed=2", "unknown key"},
		{"gemm2", "expected key=value"},
	}
	for _, tc := range bad {
		if _, _, err := ParseSpeedup(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("spec %q: error %v does not mention %q", tc.spec, err, tc.want)
		}
	}
}

// TestScenarioNames pins the derived naming scheme.
func TestScenarioNames(t *testing.T) {
	t.Parallel()
	cases := []struct {
		pert Perturbation
		want string
	}{
		{Perturbation{}, "identity"},
		{Perturbation{LaunchFactor: 1, BucketFactor: 1}, "identity"},
		{Perturbation{Speedups: map[string]float64{"gemm": 2}}, "gemm x2"},
		{Perturbation{Speedups: map[string]float64{"gemm": 2, "ew": 1.5}}, "ew x1.5+gemm x2"},
		{Perturbation{Fabric: "nvlink1", Workers: 8}, "fabric=nvlink1+workers=8"},
		{Perturbation{Speedups: map[string]float64{"gemm": 2}, LaunchFactor: 0.5, BucketFactor: 2}, "gemm x2+launch x0.5+bucket x2"},
	}
	for _, tc := range cases {
		if got := ScenarioName(tc.pert); got != tc.want {
			t.Fatalf("ScenarioName(%+v) = %q, want %q", tc.pert, got, tc.want)
		}
	}
}

// TestMetaFromEvents: stamped logs round-trip the session facts; bare logs
// fall back to simulator defaults with HasMeta false.
func TestMetaFromEvents(t *testing.T) {
	t.Parallel()
	events := recordRun(t, "sublstm", enumerate.PresetFK, 2, "nvlink1", 1)
	meta := MetaFromEvents(events)
	if !meta.HasMeta || meta.Model != "sublstm" || meta.ModelScale != "tiny" ||
		meta.Preset != string(enumerate.PresetFK) || meta.Workers != 2 || meta.Fabric != "nvlink1" {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.LaunchOverheadUs != 7 || meta.KernelSetupUs != 1.5 || meta.PerOpCPUUs != 2 {
		t.Fatalf("cost constants = %+v", meta)
	}
	bare := MetaFromEvents([]obs.TrialEvent{{Batch: 0, BatchUs: 10}})
	if bare.HasMeta || bare.Workers != 1 || bare.LaunchOverheadUs != 7 {
		t.Fatalf("bare meta = %+v", bare)
	}
}

// TestShapeRoundTrip: the stamp a session writes reads back to the shape it
// was lowered from, and the rebuild lowers that shape to the recorded
// session configuration, so -check re-simulates exactly what was recorded.
// The standard serve mix covers both fabrics and a batch and a stream
// override; the FKS shape adds a stream override under stream adaptation.
func TestShapeRoundTrip(t *testing.T) {
	t.Parallel()
	var shapes []job.Shape
	for _, j := range serve.DefaultMix() {
		n, err := j.Normalize()
		if err != nil {
			t.Fatalf("mix job %+v: %v", j, err)
		}
		shapes = append(shapes, n.Shape())
	}
	shapes = append(shapes, job.Shape{Model: "sublstm", Scale: job.Tiny, Batch: 4, Level: "FKS", Streams: 4, Workers: 1})
	for _, want := range shapes {
		cfg := want.SessionConfig()
		s := wire.NewSession(want.Build(), cfg)
		var buf bytes.Buffer
		tel := obs.NewTelemetry()
		tel.SetEventSink(&buf)
		s.Instrument(tel)
		s.Step()
		events, err := obs.ReadTrialEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: reading events: %v", want.Signature(), err)
		}
		meta := MetaFromEvents(events)
		got, err := meta.Shape()
		if err != nil {
			t.Fatalf("%s: %v", want.Signature(), err)
		}
		if got != want {
			t.Fatalf("shape read back from the log = %+v, want %+v", got, want)
		}
		rebuilt := rebuildConfig(got, meta)
		rebuilt.Index, rebuilt.Prior = cfg.Index, cfg.Prior
		if !reflect.DeepEqual(rebuilt, cfg) {
			t.Fatalf("%s: rebuilt session config differs:\n got %+v\nwant %+v", want.Signature(), rebuilt, cfg)
		}
	}
}
