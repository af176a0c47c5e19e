package harness

import (
	"fmt"

	"astra/internal/job"
	"astra/internal/obs"
	"astra/internal/parallel"
	"astra/internal/whatif"
)

func init() {
	experiments["ext-whatif"] = ExtWhatIf
}

// ExtWhatIf validates the trace-replay what-if engine end to end: for each
// model, record a fresh two-worker session, replay a scenario panel over
// its event log, and Check every prediction against ground-truth
// re-simulation. Each row is one scenario cell with its predicted and
// simulated wired-batch times and the prediction error; the identity row
// must be exact (0% by construction, not within tolerance).
func ExtWhatIf(o Options) (*Table, error) {
	const tolerancePct = 5.0
	t := &Table{
		ID:    "ext-whatif",
		Title: "Trace-replay what-if predictions vs ground-truth re-simulation, 2 workers (µs)",
		Header: []string{
			"Model", "scenario", "predicted", "simulated", "err", "verdict",
		},
		Notes: []string{
			"predicted: wired-batch time from replaying the recorded dependency graph under the scenario",
			"simulated: the same scenario re-run through gpusim (cost overrides + re-costed exchange)",
			fmt.Sprintf("verdict: PASS when the error is within %.0f%% (identity must be exactly 0)", tolerancePct),
		},
	}
	scenarios := []whatif.Scenario{
		{Name: "identity"},
		whatif.NewScenario(whatif.Perturbation{Speedups: map[string]float64{obs.ClassGEMM: 2}}),
		whatif.NewScenario(whatif.Perturbation{Speedups: map[string]float64{obs.ClassEW: 2}}),
		whatif.NewScenario(whatif.Perturbation{LaunchFactor: 0.5}),
		whatif.NewScenario(whatif.Perturbation{Fabric: "nvlink1"}),
		whatif.NewScenario(whatif.Perturbation{Workers: 4}),
		whatif.NewScenario(whatif.Perturbation{Workers: 1}),
	}
	models := []string{"scrnn", "sublstm"}
	if !o.Quick {
		models = append(models, "milstm", "stackedlstm", "gnmt")
	}
	reports, err := parallel.Map(o.workers(), len(models), func(i int) (*whatif.CheckReport, error) {
		shape := job.Shape{Model: models[i], Scale: job.Tiny, Batch: 4, Level: "FK", Workers: 2, Fabric: "pcie3"}
		rep, err := whatif.SelfCheck(shape, 2, scenarios, tolerancePct)
		if err != nil {
			return nil, fmt.Errorf("ext-whatif %s: %w", models[i], err)
		}
		o.progress("ext-whatif %s done (%d cells)", models[i], len(rep.Cells))
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	for i, rep := range reports {
		for _, c := range rep.Cells {
			verdict := "PASS"
			if !c.Pass {
				verdict = "FAIL"
			}
			t.Rows = append(t.Rows, []string{
				models[i], c.Scenario,
				fmt.Sprintf("%.0f", c.PredictedUs),
				fmt.Sprintf("%.0f", c.SimulatedUs),
				fmt.Sprintf("%.2f%%", c.ErrPct),
				verdict,
			})
		}
		if !rep.OK() {
			return nil, fmt.Errorf("ext-whatif %s: %d prediction(s) out of tolerance: %v",
				models[i], len(rep.Failures), rep.Failures)
		}
	}
	return t, nil
}
