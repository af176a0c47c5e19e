package whatif

import (
	"bytes"
	"fmt"
	"math"

	"astra/internal/gpusim"
	"astra/internal/job"
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

// checkable rejects logs Check cannot ground-truth (replay handles them
// fine, but re-simulation needs to rebuild the exact session from
// metadata) and returns the recorded shape.
func checkable(events []obs.TrialEvent, meta RunMeta) (job.Shape, error) {
	if !meta.HasMeta {
		return job.Shape{}, fmt.Errorf("whatif: event log carries no session metadata (predates stamping); -check needs a fresh recording")
	}
	if meta.Model == "" {
		return job.Shape{}, fmt.Errorf("whatif: event log names no model; cannot rebuild the session")
	}
	shape, err := meta.Shape()
	if err != nil {
		return job.Shape{}, err
	}
	if meta.Noisy {
		return job.Shape{}, fmt.Errorf("whatif: recorded run used a noisy device (autoboost or fault injection); ground truth is not reproducible")
	}
	base := gpusim.P100()
	for i := range events {
		for j := range events[i].Profiles {
			if n := events[i].Profiles[j].NumSMs; n != base.NumSMs {
				return job.Shape{}, fmt.Errorf("whatif: recorded device has %d SMs, not the P100's %d; cannot rebuild the session", n, base.NumSMs)
			}
		}
	}
	return shape, nil
}

// rebuildConfig reconstructs the recorded session's configuration through
// the same lowering the recorder used: the recorded shape plus the recorded
// device cost constants.
func rebuildConfig(shape job.Shape, meta RunMeta) wire.SessionConfig {
	cfg := shape.SessionConfig()
	cfg.Device.Seed = meta.Seed
	cfg.Device.LaunchOverheadUs = meta.LaunchOverheadUs
	cfg.Device.KernelSetupUs = meta.KernelSetupUs
	cfg.Runner.PerOpCPUUs = meta.PerOpCPUUs
	return cfg
}

// groundTruth re-simulates one scenario's wired batch with the real
// simulator: a fresh device carrying the perturbed cost constants (class
// overrides, scaled launch overhead) steps the already-wired plan once.
// Replicas are identical (the device is noise-free, Check guarantees it),
// so one rank-0 runner IS the cluster step — the same solo-reference
// pattern internal/distsim uses.
func groundTruth(s *wire.Session, shape job.Shape, meta RunMeta, pert Perturbation) (float64, error) {
	if pert.Workers != 0 {
		shape.Workers = pert.Workers
	}
	if pert.Fabric != "" {
		shape.Fabric = pert.Fabric
	}
	shape, err := shape.Normalize()
	if err != nil {
		return 0, fmt.Errorf("whatif: %w", err)
	}
	cfg := rebuildConfig(shape, meta)
	cfg.Device.LaunchOverheadUs *= pert.launchFactor()
	dev := gpusim.NewDevice(cfg.Device)
	if len(pert.Speedups) > 0 {
		factors := map[string]float64{}
		for class, f := range pert.Speedups { // lint:ok map-range order-independent map build
			factors[class] = 1 / f
		}
		dev.SetCostOverride(gpusim.CostOverride{ClassTimeFactors: factors})
	}
	cfg.Runner.Profile = true
	cfg.Runner.Comm = cfg.Comm
	return wire.NewRunner(s.Plan, dev, cfg.Runner).RunBatch(nil, nil).TotalUs, nil
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
	shape, err := checkable(events, meta)
	if err != nil {
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

	s := wire.NewSession(shape.Build(), rebuildConfig(shape, meta))
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
		sim, err := groundTruth(s, shape, meta, sc.Pert)
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

// SelfCheck records a fresh session of the shape end-to-end and validates
// the scenario matrix against it: build → instrument with an in-memory
// event sink → explore → run wired batches → replay + Check. It is the
// round-trip proof the ext-whatif harness experiment and the CI smoke job
// run.
func SelfCheck(shape job.Shape, wiredSteps int, scenarios []Scenario, tolerancePct float64) (*CheckReport, error) {
	shape, err := shape.Normalize()
	if err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	s := wire.NewSession(shape.Build(), shape.SessionConfig())
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
