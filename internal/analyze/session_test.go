// Session-backed property tests. These live in package analyze_test (not
// analyze) because they drive real wire.Sessions, and internal/wire imports
// internal/analyze — an in-package test would be an import cycle.
package analyze_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"astra/internal/analyze"
	"astra/internal/costmodel"
	"astra/internal/distsim"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/wire"
)

// runEvents explores a session to convergence, runs wiredBatches more
// batches, and returns the session plus its parsed event log.
func runEvents(t *testing.T, model, fabric string, workers, wiredBatches int,
	mod func(*wire.SessionConfig)) (*wire.Session, []obs.TrialEvent) {
	t.Helper()
	build, ok := models.Get(model)
	if !ok {
		t.Fatalf("model %q", model)
	}
	m := build(models.TinyConfig(model, 2))
	cfg := wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetAll),
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
	}
	if workers > 1 {
		ic, ok := distsim.FabricByName(fabric)
		if !ok {
			t.Fatalf("fabric %q", fabric)
		}
		opts := enumerate.PresetOptions(enumerate.PresetFK)
		opts.CommAdapt = true
		opts.Workers = workers
		cfg.Options = opts
		cfg.Comm = wire.CommConfig{
			Workers:    workers,
			BytesPerUs: ic.BytesPerUs,
			LatencyUs:  ic.LatencyUs,
			Fabric:     ic.Name,
		}
	}
	if mod != nil {
		mod(&cfg)
	}
	s := wire.NewSession(m, cfg)
	tel := obs.NewTelemetry()
	var sink bytes.Buffer
	tel.SetEventSink(&sink)
	s.Instrument(tel)
	s.Explore()
	for i := 0; i < wiredBatches; i++ {
		s.Step()
	}
	events, err := obs.ReadTrialEvents(&sink)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("session emitted no events")
	}
	return s, events
}

// TestExactReconciliationProperty is the tentpole guarantee, exercised
// across models × fabrics × worker counts on real sessions: every batch's
// critical path chains exactly from 0 to the batch wall time, and every
// worker×stream timeline partitions [0, wall] with no gaps and no overlaps
// — all comparisons exact, zero tolerance.
func TestExactReconciliationProperty(t *testing.T) {
	cases := []struct {
		model   string
		fabric  string
		workers int
	}{
		{"sublstm", "", 1},
		{"scrnn", "", 1},
		{"stackedlstm", "", 1},
		{"sublstm", "pcie3", 2},
		{"sublstm", "nvlink1", 2},
		{"scrnn", "pcie3", 3},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.model + "/" + tc.fabric
		if tc.fabric == "" {
			name = tc.model + "/local"
		}
		t.Run(name, func(t *testing.T) {
			_, events := runEvents(t, tc.model, tc.fabric, tc.workers, 3, nil)
			run, err := analyze.AnalyzeRun(events, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Batches) == 0 {
				t.Fatal("no profile-bearing batches analyzed")
			}
			if err := analyze.Verify(run); err != nil {
				t.Fatal(err)
			}
			for _, ba := range run.Batches {
				if ba.Workers != tc.workers {
					t.Fatalf("batch %d analyzed %d workers, want %d", ba.Batch, ba.Workers, tc.workers)
				}
			}
			if tc.workers > 1 {
				if run.Fabric != tc.fabric {
					t.Fatalf("run fabric %q, want %q", run.Fabric, tc.fabric)
				}
				if run.Workers != tc.workers {
					t.Fatalf("run workers %d, want %d", run.Workers, tc.workers)
				}
				// A multi-worker run must see communication kernels and
				// account for any exposed time in its taxonomy.
				comm := 0.0
				for _, ba := range run.Batches {
					comm += ba.Overlap.CommBusyUs
				}
				if comm == 0 {
					t.Fatal("no communication kernels recorded")
				}
			}
		})
	}
}

// TestAnalyzeParallelDeterminism: the analyzer's output must be
// byte-identical no matter how many goroutines it shards batches over.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	_, events := runEvents(t, "sublstm", "pcie3", 2, 4, nil)
	run1, err := analyze.AnalyzeRun(events, 1)
	if err != nil {
		t.Fatal(err)
	}
	run4, err := analyze.AnalyzeRun(events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run1.Batches, run4.Batches) {
		t.Fatal("per-batch analyses differ across analyzer worker counts")
	}
	j1, err := json.MarshalIndent(run1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j4, err := json.MarshalIndent(run4, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("JSON output differs across analyzer worker counts")
	}
	renders := []func(*analyze.Run) ([]byte, error){
		func(r *analyze.Run) ([]byte, error) {
			var b bytes.Buffer
			err := analyze.WritePathReport(&b, r)
			return b.Bytes(), err
		},
		func(r *analyze.Run) ([]byte, error) {
			var b bytes.Buffer
			err := analyze.WriteUtilReport(&b, r)
			return b.Bytes(), err
		},
		func(r *analyze.Run) ([]byte, error) {
			var b bytes.Buffer
			err := analyze.WriteOverlapReport(&b, r)
			return b.Bytes(), err
		},
		func(r *analyze.Run) ([]byte, error) {
			var b bytes.Buffer
			err := analyze.WriteConvergeReport(&b, r)
			return b.Bytes(), err
		},
	}
	for i, render := range renders {
		b1, err := render(run1)
		if err != nil {
			t.Fatal(err)
		}
		b4, err := render(run4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b4) {
			t.Fatalf("report %d differs across analyzer worker counts", i)
		}
	}
}

// TestConvergeReportMatchesSession cross-checks the convergence analytics
// against the session's own ground truth.
func TestConvergeReportMatchesSession(t *testing.T) {
	s, events := runEvents(t, "sublstm", "", 1, 5, nil)
	run, err := analyze.AnalyzeRun(events, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := run.Converge
	if c.Trials != s.Trials {
		t.Fatalf("converge trials %d, session ran %d", c.Trials, s.Trials)
	}
	if c.TotalVars != len(s.Exp.Vars()) {
		t.Fatalf("converge vars %d, explorer has %d", c.TotalVars, len(s.Exp.Vars()))
	}
	if c.TrialsToFreeze <= 0 || c.TrialsToFreeze > s.Trials {
		t.Fatalf("trials-to-freeze %d outside (0, %d]", c.TrialsToFreeze, s.Trials)
	}
	if c.WiredBatches != 5 {
		t.Fatalf("wired batches %d, want 5", c.WiredBatches)
	}
	if c.Reexplorations != s.Exp.Reexplorations() {
		t.Fatalf("reexplorations %d, explorer reports %d", c.Reexplorations, s.Exp.Reexplorations())
	}
	// Every adaptive variable must appear in the freeze timeline exactly
	// once (no thaws in this run).
	seen := map[string]int{}
	for _, f := range c.Freezes {
		seen[f.VarID]++
		if f.Trial <= 0 || f.Trial > c.TrialsToFreeze {
			t.Fatalf("freeze %+v outside exploration window", f)
		}
	}
	if len(seen) != c.TotalVars {
		t.Fatalf("freeze timeline names %d vars, want %d", len(seen), c.TotalVars)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("var %s froze %d times", id, n)
		}
	}
	// The regret curve covers every trial and sums to CumRegretUs by
	// construction; best wired time must lower-bound the mean.
	if len(c.Regret) != c.Trials {
		t.Fatalf("regret curve has %d points over %d trials", len(c.Regret), c.Trials)
	}
	if c.BestWiredUs <= 0 || c.BestWiredUs > c.MeanWiredUs {
		t.Fatalf("best wired %v vs mean %v", c.BestWiredUs, c.MeanWiredUs)
	}
	for _, p := range c.Regret {
		if p.RegretUs != p.BatchUs-c.BestWiredUs {
			t.Fatalf("regret point %+v inconsistent with best %v", p, c.BestWiredUs)
		}
	}
}

// TestConvergeReportCarriesPriorCounters closes the telemetry loop for
// cost-model-guided sessions: the explorer's PriorStats must arrive in the
// event log and land, exactly, in the converge report's prior counters.
func TestConvergeReportCarriesPriorCounters(t *testing.T) {
	model := costmodel.NewModel()
	s, events := runEvents(t, "sublstm", "", 1, 2, func(cfg *wire.SessionConfig) {
		// ModeFull with an initially-empty model: the session trains it
		// online, so later variables are planned from earlier measurements.
		cfg.Prior = costmodel.NewPlanner(model,
			costmodel.Meta{Model: "sublstm", Scale: "tiny", Batch: 2, Workers: 1},
			costmodel.PlannerConfig{Mode: costmodel.ModeFull})
	})
	ps := s.Exp.PriorStats()
	if ps.Hits+ps.Misses == 0 {
		t.Fatal("guided session scored no plans; the test exercises nothing")
	}
	run, err := analyze.AnalyzeRun(events, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := run.Converge
	if c.PriorHits != ps.Hits || c.PriorMisses != ps.Misses ||
		c.PriorPruned != ps.Pruned || c.PriorRankInversions != ps.RankInversions {
		t.Fatalf("converge prior counters %d/%d/%d/%d, session reports %d/%d/%d/%d",
			c.PriorHits, c.PriorMisses, c.PriorPruned, c.PriorRankInversions,
			ps.Hits, ps.Misses, ps.Pruned, ps.RankInversions)
	}
	if model.Updates() == 0 {
		t.Fatal("session did not train the attached cost model")
	}
}

// TestDiffAttributesThrottledClass is the acceptance criterion for diff
// mode: run A clean, run B identical except a 3× throttle applied only to
// GEMM kernels and only after exploration ends — so the two runs explore
// identically and diverge purely in wired-phase GEMM time. The diff must
// blame the gemm class for at least 90% of the aligned delta.
func TestDiffAttributesThrottledClass(t *testing.T) {
	// A wide model keeps batches GPU-bound so the GEMM throttle actually
	// moves wall time (a dispatch-bound tiny model would hide it).
	build, ok := models.Get("sublstm")
	if !ok {
		t.Fatal("model sublstm")
	}
	mcfg := models.Config{Batch: 16, SeqLen: 4, Hidden: 1024, Embed: 128,
		Vocab: 100, Embedding: true, Backward: true}
	session := func(faults gpusim.FaultConfig) (*wire.Session, *bytes.Buffer) {
		dev := gpusim.P100()
		dev.Faults = faults
		s := wire.NewSession(build(mcfg), wire.SessionConfig{
			Device:  dev,
			Options: enumerate.PresetOptions(enumerate.PresetAll),
			Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
		})
		tel := obs.NewTelemetry()
		var sink bytes.Buffer
		tel.SetEventSink(&sink)
		s.Instrument(tel)
		return s, &sink
	}

	const wired = 4
	sa, sinkA := session(gpusim.FaultConfig{})
	trials := sa.Explore()
	for i := 0; i < wired; i++ {
		sa.Step()
	}
	// Device batches are 1-based; batch trials+1 is the first wired batch.
	sb, sinkB := session(gpusim.FaultConfig{
		ThrottleStartBatch: trials + 1,
		ThrottleBatches:    wired,
		ThrottleFactor:     3,
		ThrottleClass:      "gemm",
	})
	if got := sb.Explore(); got != trials {
		t.Fatalf("runs diverged during exploration: %d vs %d trials", got, trials)
	}
	for i := 0; i < wired; i++ {
		sb.Step()
	}

	analyzeLog := func(sink *bytes.Buffer) *analyze.Run {
		events, err := obs.ReadTrialEvents(sink)
		if err != nil {
			t.Fatal(err)
		}
		run, err := analyze.AnalyzeRun(events, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := analyze.Verify(run); err != nil {
			t.Fatal(err)
		}
		return run
	}
	ra, rb := analyzeLog(sinkA), analyzeLog(sinkB)
	d := analyze.Diff(ra, rb)
	if d.AlignedBatches != len(ra.Batches) {
		t.Fatalf("aligned %d of %d batches", d.AlignedBatches, len(ra.Batches))
	}
	if d.AlignedDeltaUs <= 0 {
		t.Fatalf("throttled run not slower: aligned delta %v", d.AlignedDeltaUs)
	}
	// Per-class deltas partition the aligned delta exactly (telescoped
	// sums, so the only float work is the subtraction per class).
	sum := 0.0
	for _, v := range d.ByClass {
		sum += v
	}
	if diff := sum - d.AlignedDeltaUs; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("class deltas sum to %v, aligned delta %v", sum, d.AlignedDeltaUs)
	}
	if d.TopClass != obs.ClassGEMM {
		t.Fatalf("diff blamed %q, want %q (by_class=%v)", d.TopClass, obs.ClassGEMM, d.ByClass)
	}
	if d.TopClassShare < 0.9 {
		t.Fatalf("gemm share %.3f < 0.90 (by_class=%v)", d.TopClassShare, d.ByClass)
	}
	var render bytes.Buffer
	if err := analyze.WriteDiffReport(&render, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(render.Bytes(), []byte("blame: gemm")) {
		t.Fatalf("diff report missing blame line:\n%s", render.String())
	}
}
