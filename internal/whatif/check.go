package whatif

import (
	"bytes"
	"fmt"
	"math"

	"astra/internal/distsim"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/wire"
)

// CheckCell is one scenario's prediction-vs-simulation comparison.
type CheckCell struct {
	Scenario    string  `json:"scenario"`
	Workers     int     `json:"workers"`
	Fabric      string  `json:"fabric,omitempty"`
	PredictedUs float64 `json:"predicted_us"`
	SimulatedUs float64 `json:"simulated_us"`
	ErrPct      float64 `json:"err_pct"`
	Pass        bool    `json:"pass"`
}

// CheckReport is the outcome of validating a scenario matrix against
// ground-truth re-simulation.
type CheckReport struct {
	Model string `json:"model"`
	// BaseRecordedUs is the recorded last wired batch; BaseSimulatedUs the
	// same batch from the rebuilt session. They must agree exactly, or the
	// log does not describe a session Check knows how to rebuild.
	BaseRecordedUs  float64     `json:"base_recorded_us"`
	BaseSimulatedUs float64     `json:"base_simulated_us"`
	TolerancePct    float64     `json:"tolerance_pct"`
	Cells           []CheckCell `json:"cells"`
	Failures        []string    `json:"failures,omitempty"`
}

// OK reports whether every cell passed.
func (r *CheckReport) OK() bool { return len(r.Failures) == 0 }

// validPreset guards enumerate.PresetOptions, which panics on unknown names.
func validPreset(p string) bool {
	switch enumerate.Preset(p) {
	case enumerate.PresetF, enumerate.PresetFK, enumerate.PresetFKS, enumerate.PresetAll:
		return true
	}
	return false
}

// checkable rejects logs Check cannot ground-truth: replay handles them
// fine, but re-simulation needs to rebuild the exact session from metadata.
func checkable(events []obs.TrialEvent, meta RunMeta) error {
	if !meta.HasMeta {
		return fmt.Errorf("whatif: event log carries no session metadata (predates stamping); -check needs a fresh recording")
	}
	if meta.Model == "" {
		return fmt.Errorf("whatif: event log names no model; cannot rebuild the session")
	}
	if _, ok := models.Get(meta.Model); !ok {
		return fmt.Errorf("whatif: recorded model %q is not in the zoo", meta.Model)
	}
	if meta.ModelScale != "default" && meta.ModelScale != "tiny" {
		return fmt.Errorf("whatif: recorded model scale %q is not reconstructible (only default/tiny are)", meta.ModelScale)
	}
	if !validPreset(meta.Preset) {
		return fmt.Errorf("whatif: recorded preset %q is not a known enumeration preset", meta.Preset)
	}
	if meta.Noisy {
		return fmt.Errorf("whatif: recorded run used a noisy device (autoboost or fault injection); ground truth is not reproducible")
	}
	base := gpusim.P100()
	for i := range events {
		for j := range events[i].Profiles {
			if n := events[i].Profiles[j].NumSMs; n != base.NumSMs {
				return fmt.Errorf("whatif: recorded device has %d SMs, not the P100's %d; cannot rebuild the session", n, base.NumSMs)
			}
		}
	}
	return nil
}

// rebuildSession reconstructs the recorded session from the log metadata:
// same model and scale, same preset and stream count, same device cost
// constants, same fabric and ring. The returned session has not stepped.
func rebuildSession(meta RunMeta) (*wire.Session, error) {
	build, _ := models.Get(meta.Model)
	var mcfg models.Config
	if meta.ModelScale == "tiny" {
		mcfg = models.TinyConfig(meta.Model, meta.PerDeviceBatch)
	} else {
		mcfg = models.DefaultConfig(meta.Model, meta.PerDeviceBatch)
	}
	eopts := enumerate.PresetOptions(enumerate.Preset(meta.Preset))
	if meta.NumStreams > 0 {
		eopts.NumStreams = meta.NumStreams
	}
	dev := gpusim.P100()
	dev.Seed = meta.Seed
	dev.LaunchOverheadUs = meta.LaunchOverheadUs
	dev.KernelSetupUs = meta.KernelSetupUs
	var comm wire.CommConfig
	if meta.Workers >= 2 {
		ic, ok := distsim.FabricByName(meta.Fabric)
		if !ok {
			return nil, fmt.Errorf("whatif: recorded fabric %q is not a known interconnect", meta.Fabric)
		}
		comm = wire.CommConfig{
			Workers:    meta.Workers,
			BytesPerUs: ic.BytesPerUs,
			LatencyUs:  ic.LatencyUs,
			Fabric:     ic.Name,
		}
		eopts.CommAdapt = true
		eopts.Workers = meta.Workers
	}
	return wire.NewSession(build(mcfg), wire.SessionConfig{
		Device:  dev,
		Options: eopts,
		Runner:  wire.RunnerConfig{PerOpCPUUs: meta.PerOpCPUUs},
		Comm:    comm,
	}), nil
}

// groundTruth re-simulates one scenario's wired batch with the real
// simulator: a fresh device carrying the perturbed cost constants (class
// overrides, scaled launch overhead) steps the already-wired plan once.
// Replicas are identical (the device is noise-free, Check guarantees it),
// so one rank-0 runner IS the cluster step — the same solo-reference
// pattern internal/distsim uses.
func groundTruth(s *wire.Session, meta RunMeta, pert Perturbation) (float64, error) {
	dcfg := gpusim.P100()
	dcfg.Seed = meta.Seed
	dcfg.LaunchOverheadUs = meta.LaunchOverheadUs * pert.launchFactor()
	dcfg.KernelSetupUs = meta.KernelSetupUs
	dev := gpusim.NewDevice(dcfg)
	if len(pert.Speedups) > 0 {
		factors := map[string]float64{}
		for class, f := range pert.Speedups { // lint:ok map-range order-independent map build
			factors[class] = 1 / f
		}
		dev.SetCostOverride(gpusim.CostOverride{ClassTimeFactors: factors})
	}
	rcfg := wire.RunnerConfig{PerOpCPUUs: meta.PerOpCPUUs, Profile: true}
	workers := meta.Workers
	if pert.Workers != 0 {
		workers = pert.Workers
	}
	if workers >= 2 {
		fabric := meta.Fabric
		if pert.Fabric != "" {
			fabric = pert.Fabric
		}
		ic, ok := distsim.FabricByName(fabric)
		if !ok {
			return 0, fmt.Errorf("whatif: unknown fabric %q", fabric)
		}
		rcfg.Comm = wire.CommConfig{
			Workers:    workers,
			BytesPerUs: ic.BytesPerUs,
			LatencyUs:  ic.LatencyUs,
			Fabric:     ic.Name,
		}
	}
	return wire.NewRunner(s.Plan, dev, rcfg).RunBatch(nil, nil).TotalUs, nil
}

// Check validates every scenario's replay prediction against ground-truth
// re-simulation: it rebuilds the recorded session from the log metadata,
// re-explores to the same wired schedule, asserts the rebuilt wired batch
// reproduces the recording exactly, then re-simulates each scenario with
// the perturbation applied to the real simulator and compares. `par`
// bounds prediction parallelism (<1 = one goroutine per CPU); simulations
// run sequentially (they share the rebuilt plan).
func Check(events []obs.TrialEvent, scenarios []Scenario, tolerancePct float64, par int) (*CheckReport, error) {
	meta := MetaFromEvents(events)
	if err := checkable(events, meta); err != nil {
		return nil, err
	}
	for _, sc := range scenarios {
		if sc.Pert.bucketFactor() != 1 {
			return nil, fmt.Errorf("whatif: scenario %q: bucket-size perturbations are replay-only (amortized re-cost; the simulator would re-bucket the exchange)", sc.Name)
		}
	}
	recWired := 0.0
	sawWired := false
	for i := range events {
		if events[i].Phase == "wired" {
			recWired = events[i].BatchUs
			sawWired = true
		}
	}
	if !sawWired {
		return nil, fmt.Errorf("whatif: event log has no wired batch; -check needs a recording that ran past exploration")
	}

	preds, err := PredictMatrix(events, scenarios, par)
	if err != nil {
		return nil, err
	}

	s, err := rebuildSession(meta)
	if err != nil {
		return nil, err
	}
	s.Explore()
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("whatif: rebuilt session failed exploration: %w", err)
	}
	base := s.Step().TotalUs
	rep := &CheckReport{
		Model:           meta.Model,
		BaseRecordedUs:  recWired,
		BaseSimulatedUs: base,
		TolerancePct:    tolerancePct,
	}
	if base != recWired {
		return nil, fmt.Errorf("whatif: log does not reproduce: rebuilt wired batch %.6g µs, recorded %.6g µs — the log was not produced by a default-constructed session (custom runner/device settings?)", base, recWired)
	}

	for i, sc := range scenarios {
		pred := preds[i]
		if pred == nil {
			continue // skipped by a failed prediction; PredictMatrix surfaced the error
		}
		sim, err := groundTruth(s, meta, sc.Pert)
		if err != nil {
			return nil, fmt.Errorf("whatif: scenario %q: %w", sc.Name, err)
		}
		cell := CheckCell{
			Scenario:    sc.Name,
			Workers:     meta.Workers,
			Fabric:      meta.Fabric,
			PredictedUs: pred.PredictedWiredUs,
			SimulatedUs: sim,
		}
		if sc.Pert.Workers != 0 {
			cell.Workers = sc.Pert.Workers
		}
		if sc.Pert.Fabric != "" {
			cell.Fabric = sc.Pert.Fabric
		}
		if cell.Workers <= 1 {
			cell.Fabric = ""
		}
		if sim > 0 {
			cell.ErrPct = math.Abs(pred.PredictedWiredUs-sim) / sim * 100
		}
		cell.Pass = cell.ErrPct <= tolerancePct
		if sc.Pert.Identity() && pred.PredictedWiredUs != sim {
			// Identity must be bit-exact, not merely within tolerance.
			cell.Pass = false
		}
		if !cell.Pass {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"scenario %q: predicted %.6g µs vs simulated %.6g µs (%.2f%% > %.2f%%)",
				sc.Name, cell.PredictedUs, cell.SimulatedUs, cell.ErrPct, tolerancePct))
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// SelfCheck records a fresh session end-to-end and validates the scenario
// matrix against it: build → instrument with an in-memory event sink →
// explore → run wired batches → replay + Check. It is the round-trip proof
// the ext-whatif harness experiment and the CI smoke job run.
func SelfCheck(model string, batch, workers int, fabric string, preset enumerate.Preset, tiny bool, wiredSteps int, scenarios []Scenario, tolerancePct float64) (*CheckReport, error) {
	build, ok := models.Get(model)
	if !ok {
		return nil, fmt.Errorf("whatif: unknown model %q", model)
	}
	var mcfg models.Config
	if tiny {
		mcfg = models.TinyConfig(model, batch)
	} else {
		mcfg = models.DefaultConfig(model, batch)
	}
	eopts := enumerate.PresetOptions(preset)
	var comm wire.CommConfig
	if workers >= 2 {
		ic, ok := distsim.FabricByName(fabric)
		if !ok {
			return nil, fmt.Errorf("whatif: unknown fabric %q", fabric)
		}
		comm = wire.CommConfig{
			Workers:    workers,
			BytesPerUs: ic.BytesPerUs,
			LatencyUs:  ic.LatencyUs,
			Fabric:     ic.Name,
		}
		eopts.CommAdapt = true
		eopts.Workers = workers
	}
	s := wire.NewSession(build(mcfg), wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: eopts,
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
		Comm:    comm,
	})
	var buf bytes.Buffer
	tel := obs.NewTelemetry()
	tel.SetEventSink(&buf)
	s.Instrument(tel)
	s.Explore()
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("whatif: selfcheck session failed: %w", err)
	}
	if wiredSteps < 1 {
		wiredSteps = 1
	}
	for i := 0; i < wiredSteps; i++ {
		s.Step()
	}
	events, err := obs.ReadTrialEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("whatif: selfcheck event log: %w", err)
	}
	return Check(events, scenarios, tolerancePct, 1)
}
