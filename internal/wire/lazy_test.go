package wire

import (
	"maps"
	"reflect"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/tensor"
)

// TestTimingOnlyExplorationMakesNoData explores the paper-scale scrnn at
// batch 16, level FKS, to convergence and runs wired steps: timing never
// reads a weight, so no parameter's or constant's data may be made. A
// future read on the timing path fails here.
func TestTimingOnlyExplorationMakesNoData(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a paper-scale model")
	}
	m := models.SCRNN(models.DefaultConfig("scrnn", 16))
	s := NewSession(m, SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetFKS),
		Runner:  RunnerConfig{PerOpCPUUs: 2},
	})
	if s.Explore() == 0 || s.Err() != nil {
		t.Fatalf("exploration ran %d trials (err %v)", s.Trials, s.Err())
	}
	s.Step()
	for _, v := range m.G.Values {
		if v.IsConst() && v.Materialized() {
			t.Fatalf("timing-only session made the data of %s (%s)", v, v.Name)
		}
	}
}

// TestEvalSessionHoldsOneWeightCopy checks that a value-evaluating session
// trains on its own parameter tensors, made straight from the recipes:
// the graph's shared copy of every parameter stays unmade, while the
// constants the batches read (the zero initial states) are made.
func TestEvalSessionHoldsOneWeightCopy(t *testing.T) {
	s := tinySession(t, "sublstm", enumerate.PresetFK, true)
	s.LearningRate = 0.1
	for _, p := range s.Model.G.Params {
		if tensor.MaxAbsDiff(s.Params[p], p.Recipe().New()) != 0 {
			t.Fatalf("session parameter %s differs from its recipe", p.Name)
		}
	}
	for i := 0; i < 3; i++ {
		s.Step()
	}
	params := map[string]bool{}
	for _, p := range s.Model.G.Params {
		params[p.Name] = true
		if p.Materialized() {
			t.Fatalf("the graph's copy of parameter %s was made", p.Name)
		}
	}
	consts := 0
	for _, v := range s.Model.G.Values {
		if v.IsConst() && !params[v.Name] {
			consts++
			if !v.Materialized() {
				t.Fatalf("constant %s was bound without being made", v.Name)
			}
		}
	}
	if consts == 0 {
		t.Fatal("the model has no constants to check")
	}
}

// TestEventMetricsOutliveTheBatch steps an instrumented session through
// consecutive exploring batches. The runner refills one metrics map every
// batch, so each batch's event record must hold a map of its own that
// keeps the batch's values.
func TestEventMetricsOutliveTheBatch(t *testing.T) {
	s := tinySession(t, "scrnn", enumerate.PresetFKS, false)
	s.Instrument(obs.NewTelemetry())
	var events []obs.TrialEvent
	var kept []map[string]float64
	var runnerMap uintptr
	for i := 0; i < 4; i++ {
		if s.Done() {
			t.Fatalf("exploration converged after %d batches", i)
		}
		res := s.Step()
		if len(res.Metrics) == 0 {
			t.Fatalf("batch %d measured nothing", i)
		}
		if p := reflect.ValueOf(res.Metrics).Pointer(); i == 0 {
			runnerMap = p
		} else if p != runnerMap {
			t.Fatalf("batch %d got a new metrics map: the runner should refill one", i)
		}
		ev := s.trialEvent(&res, nil, nil, "explore", false)
		if reflect.ValueOf(ev.Metrics).Pointer() == runnerMap {
			t.Fatalf("batch %d's event record shares the runner's metrics map", i)
		}
		events = append(events, ev)
		kept = append(kept, maps.Clone(res.Metrics))
	}
	changed := false
	for i, ev := range events {
		if !maps.Equal(ev.Metrics, kept[i]) {
			t.Fatalf("batch %d's event metrics changed after later batches", i)
		}
		changed = changed || (i > 0 && !maps.Equal(kept[i], kept[i-1]))
	}
	if !changed {
		t.Fatal("every batch measured the same values: the test shows nothing")
	}
}
