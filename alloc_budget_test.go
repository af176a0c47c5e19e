package astra

// Allocation budgets for the //astra:hotpath functions. The pooled event
// machinery (gpusim free-lists, head-index stream queues, reusable dispatch
// state) and the sharded profile index keep the inner loop almost
// allocation-free at steady state; these tests pin that property so a
// regression fails `go test` rather than quietly showing up as GC time.
//
// Every budget is the exact measured count, not a ceiling with headroom:
// the escape lint rule (internal/lint/escape) sees the allocations the
// compiler places, and these pins catch the ones it cannot see — append
// growth past a slice's capacity and string concatenation at run time —
// down to a single allocation. A deliberate change re-measures and re-pins
// the row, and records the new figure in docs/PERFORMANCE.md, which also
// lists the row that runs each annotated function.

import (
	"testing"

	"astra/internal/adapt"
	"astra/internal/costmodel"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/kernels"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/profile"
	"astra/internal/wire"
)

// pinAllocs fails unless f allocates exactly want times per run, averaged
// over runs.
func pinAllocs(t *testing.T, what string, runs int, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(runs, f); got != want {
		t.Errorf("%s allocates %.0f/run, pinned at %.0f: fix the regression, or re-measure and re-pin after a deliberate change", what, got, want)
	}
}

// TestSimulatorBatchAllocBudget drives a 200-kernel two-stream batch with
// cross-stream events through Reset/Launch/Synchronize. Once the pools
// have warmed up, a whole batch allocates nothing.
func TestSimulatorBatchAllocBudget(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.P100())
	dev.EnsureStreams(2)
	spec := kernels.GEMM(kernels.CuBLAS, kernels.GEMMShape{M: 64, K: 512, N: 512})
	batch := func() {
		dev.Reset()
		for i := 0; i < 200; i++ {
			s := i % 2
			dev.Launch(s, spec)
			if i%16 == 15 {
				ev := dev.RecordEvent(s)
				dev.WaitEvent(1-s, ev)
			}
		}
		dev.Synchronize()
	}
	batch() // size the pools
	batch()
	pinAllocs(t, "simulator 200-kernel batch", 20, 0, batch)
	reused, allocated := dev.PoolCounters()
	if reused == 0 || reused < allocated {
		t.Errorf("pools not reusing: reused=%d allocated=%d", reused, allocated)
	}
}

// TestProfileRecordAllocBudget pins the index write path: recording into
// existing keys does not allocate.
func TestProfileRecordAllocBudget(t *testing.T) {
	ix := profile.NewIndex()
	keys := []profile.Key{
		profile.K("ctx", "v0", "a"), profile.K("ctx", "v0", "b"),
		profile.K("ctx", "v1", "a"), profile.K("ctx", "v1", "b"),
	}
	for _, k := range keys {
		ix.Record(k, 100)
	}
	pinAllocs(t, "Record, 4-key round", 100, 0, func() {
		for i, k := range keys {
			ix.Record(k, float64(100+i))
		}
	})
}

// TestProfileLookupAllocBudget pins the index read path the explorer takes
// on every trial: Has (and the shard read under it) on measured and
// unmeasured keys, and Intern of a key already interned. None of them
// allocates.
func TestProfileLookupAllocBudget(t *testing.T) {
	ix := profile.NewIndex()
	hit, miss := profile.K("ctx", "v0", "a"), profile.K("ctx", "v0", "b")
	ix.Record(hit, 100)
	pinAllocs(t, "Has, hit and miss", 100, 0, func() {
		ix.Has(hit)
		ix.Has(miss)
	})
	name := string(hit)
	pinAllocs(t, "Intern of an interned key", 100, 0, func() { profile.Intern(name) })
}

// TestVarKeyAllocBudget pins the explorer's profile-key probe: once a
// variable's per-context key cache is built, Key and KeyFor only read it.
func TestVarKeyAllocBudget(t *testing.T) {
	v := adapt.NewVar("g0.chunk", "1", "2", "4")
	v.Key() // build the cache
	pinAllocs(t, "Key and KeyFor, 3 choices", 100, 0, func() {
		v.Key()
		for c := range v.Labels {
			v.KeyFor(c)
		}
	})
}

// TestKernelClassAllocBudget pins kernel classing, which fault injection
// consults on every launch of a throttled device: one name per class.
func TestKernelClassAllocBudget(t *testing.T) {
	names := []string{"allreduce.b0.s1", "gemm_cublas_64x64x64", "ew_add", "copy", "mystery"}
	pinAllocs(t, "KernelClass, 5 names", 100, 0, func() {
		for _, n := range names {
			obs.KernelClass(n)
		}
	})
}

// TestWiredStepAllocBudget pins the full wired mini-batch (dispatch + DES
// simulation) for the paper-scale subLSTM (down from ~13.3k before
// pooling).
func TestWiredStepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a paper-scale model")
	}
	build, _ := models.Get("sublstm")
	m := build(models.DefaultConfig("sublstm", 16))
	s := wire.NewSession(m, wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetFK),
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
	})
	s.Explore()
	s.Step()
	pinAllocs(t, "wired step", 10, 2321, func() { s.Step() })
}

// TestWiredEvalBatchAllocBudget pins a wired batch that also computes
// values through the CPU oracle (wire's eval on every unit), with the
// profiling span records on, for a tiny subLSTM. Most of the count is the
// oracle's own tensors.
func TestWiredEvalBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("the -short runs are the instrumented ones (make race, make cover-check), and instrumentation shifts the oracle's count")
	}
	build, _ := models.Get("sublstm")
	m := build(models.TinyConfig("sublstm", 2))
	s := wire.NewSession(m, wire.SessionConfig{
		Device:     gpusim.P100(),
		Options:    enumerate.PresetOptions(enumerate.PresetFK),
		Runner:     wire.RunnerConfig{PerOpCPUUs: 2},
		EvalValues: true,
	})
	s.Explore()
	r := s.Runner
	in := m.MakeInputs(1)
	if res := r.RunBatch(in, s.Params); res.Env[m.G.Loss] == nil || res.ProfEvents == 0 {
		t.Fatal("wired batch computed no loss or recorded no profiling events")
	}
	pinAllocs(t, "wired batch with values", 10, 1706, func() { r.RunBatch(in, s.Params) })
}

// TestWiredCommBatchAllocBudget pins a wired 2-worker RunBatch replaying
// the runner's cached program: the comm path (bucket readiness events,
// ring steps, comm accounting) the single-worker step above never takes.
func TestWiredCommBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a paper-scale model")
	}
	build, _ := models.Get("scrnn")
	m := build(models.DefaultConfig("scrnn", 16))
	opts := enumerate.PresetOptions(enumerate.PresetFK)
	opts.CommAdapt = true
	opts.Workers = 2
	s := wire.NewSession(m, wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: opts,
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
		Comm:    wire.CommConfig{Workers: 2, BytesPerUs: 11000, LatencyUs: 8, Fabric: "pcie3"},
	})
	s.Explore()
	r := s.Runner
	if res := r.RunBatch(nil, nil); res.CommKernels == 0 {
		t.Fatal("wired batch exchanged no gradients")
	}
	pinAllocs(t, "wired 2-worker batch", 10, 1021, func() { r.RunBatch(nil, nil) })
}

// TestCostModelPredictAllocBudget pins the cost-model prediction hot path:
// once trained, Predict hashes feature tuples straight into the bucket
// table and does not allocate. The explorer consults it once per
// (variable, context), but the serve layer's shared models field many
// concurrent sessions — a per-call allocation here becomes fleet-wide GC
// pressure.
func TestCostModelPredictAllocBudget(t *testing.T) {
	m := costmodel.NewModel()
	meta := costmodel.Meta{Model: "sublstm", Scale: "default", Batch: 16, Workers: 4, Fabric: "pcie3"}
	labels := []string{"1", "2", "4", "8"}
	for _, l := range labels {
		m.Observe(meta, "g0.chunk", l, 100)
	}
	cold := costmodel.Meta{Model: "unseen", Batch: 64}
	pinAllocs(t, "Predict, 12-call round", 100, 0, func() {
		for _, l := range labels {
			m.Predict(meta, "g0.chunk", l)  // L0 hit
			m.Predict(cold, "g0.chunk", l)  // L2 backoff
			m.Predict(cold, "mystery.x", l) // full miss
		}
	})
}
