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
	"bytes"
	"math"
	"runtime"
	"testing"

	"astra/internal/adapt"
	"astra/internal/costmodel"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/job"
	"astra/internal/kernels"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/profile"
	"astra/internal/verify"
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
// have warmed up, a whole batch allocates nothing: one that differs from
// the batch before it (alternating kernel shapes), which runs the event
// loop, and one that repeats it, which replays.
func TestSimulatorBatchAllocBudget(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.P100())
	dev.EnsureStreams(2)
	specs := []gpusim.KernelSpec{
		kernels.GEMM(kernels.CuBLAS, kernels.GEMMShape{M: 64, K: 512, N: 512}),
		kernels.GEMM(kernels.CuBLAS, kernels.GEMMShape{M: 64, K: 512, N: 256}),
	}
	batch := func(spec gpusim.KernelSpec) {
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
	n := 0
	differ := func() {
		n++
		batch(specs[n%2])
	}
	differ() // size the pools
	differ()
	pinAllocs(t, "simulator 200-kernel batch, event loop", 20, 0, differ)
	if r := dev.BatchesReplayed(); r != 0 {
		t.Fatalf("%d batches that differ from the last replayed", r)
	}
	pinAllocs(t, "simulator 200-kernel batch, replayed", 20, 0, func() { batch(specs[0]) })
	if r := dev.BatchesReplayed(); r < 20 {
		t.Fatalf("only %d repeated batches replayed", r)
	}
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
// pooling, and from 2321 before the launch list: the kernel specs, names
// included, are resolved once per program rather than once per batch, and
// from 2 before the runner kept one metrics map for every batch).
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
	pinAllocs(t, "wired step", 10, 0, func() { s.Step() })
}

// TestWiredEvalBatchAllocBudget pins a wired batch that also computes
// values through the CPU oracle (wire's eval on every unit), with the
// profiling span records on, for a tiny subLSTM. The count is the
// oracle's own tensors: the kernel specs come from the launch list, and
// the metrics map is the runner's.
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
	pinAllocs(t, "wired batch with values", 10, 1483, func() { r.RunBatch(in, s.Params) })
}

// TestWiredCommBatchAllocBudget pins a wired 2-worker RunBatch replaying
// the runner's cached program: the comm path (bucket readiness events,
// ring steps, comm accounting) the single-worker step above never takes.
// It allocates nothing.
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
	pinAllocs(t, "wired 2-worker batch", 10, 0, func() { r.RunBatch(nil, nil) })
}

// TestWiredClusterStepAllocBudget pins perfbench wired-dp's op: one wired
// Session.Step of the paper-scale scrnn at batch 16, level FKS, over two
// workers on PCIe 3. The peer issues rank 0's program and launch list,
// each runner refills its own metrics map and the session its worker-time
// list, so a wired step allocates nothing.
func TestWiredClusterStepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a paper-scale model")
	}
	shape, err := job.Shape{Model: "scrnn", Scale: job.Default, Batch: 16, Level: "FKS", Workers: 2, Fabric: "pcie3"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := wire.NewSession(shape.Build(), shape.SessionConfig())
	s.Explore()
	if res := s.Step(); len(res.WorkerUs) != 2 || res.CommKernels == 0 {
		t.Fatalf("wired step ran %d workers and %d comm kernels, want 2 workers exchanging gradients", len(res.WorkerUs), res.CommKernels)
	}
	pinAllocs(t, "wired 2-worker Session.Step", 10, 0, func() { s.Step() })
}

// TestWarmClusterFirstStepAllocBudget pins the first Step of a fresh
// session that resumes wired-dp's shape from a profile snapshot: its
// explorer is done before the first batch, so the step is wired. Each
// runner sized its device from the program when it was built, so the step
// draws every pooled record and event and every queue slot from storage
// made then, and no pool grows. What it allocates is work done once per
// program or per runner: resolving the launch list (a name per kernel),
// checking the program, and scratch such as the execution state, the
// metrics map, the event loop's lists and the replay reference.
func TestWarmClusterFirstStepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a paper-scale model")
	}
	shape, err := job.Shape{Model: "scrnn", Scale: job.Default, Batch: 16, Level: "FKS", Workers: 2, Fabric: "pcie3"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cold := wire.NewSession(shape.Build(), shape.SessionConfig())
	cold.Explore()
	var snap bytes.Buffer
	if err := cold.Ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	warm := func() *wire.Session {
		ix := profile.NewIndex()
		if err := ix.Load(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		cfg := shape.SessionConfig()
		cfg.Index = ix
		s := wire.NewSession(shape.Build(), cfg)
		if !s.Done() {
			t.Fatal("the warm session explores")
		}
		return s
	}
	// The count is the least over five fresh sessions: the allocator's
	// statistics cover the whole process, and in a whole-package run work
	// outside the step (another test's leftover goroutines) now and then
	// adds one to a single measurement.
	got := uint64(math.MaxUint64)
	for run := 0; run < 5; run++ {
		s := warm()
		devs := []*gpusim.Device{s.Runner.Dev}
		for _, p := range s.Peers {
			devs = append(devs, p.Dev)
		}
		pooled := make([]int64, len(devs))
		for i, d := range devs {
			_, pooled[i] = d.PoolCounters()
		}
		got = min(got, allocsOnce(func() { s.Step() }))
		for i, d := range devs {
			if _, now := d.PoolCounters(); now != pooled[i] {
				t.Errorf("rank %d's first batch grew its pools by %d objects past the program's size", i, now-pooled[i])
			}
		}
	}
	if got != 1105 {
		t.Errorf("a warm 2-worker session's first Step allocates %d, pinned at %d: fix the regression, or re-measure and re-pin after a deliberate change", got, 1105)
	}
}

// allocsOnce counts the heap allocations of one call of f, the way
// testing.AllocsPerRun counts a run. It collects twice first, which
// empties every sync.Pool (fmt's printers among them), so f allocates
// whatever it takes from one afresh, whenever the last collection ran.
func allocsOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCheckScheduleAllocBudget pins in-session verification of a
// re-lowered program: once the schedule's happens-before arena has held a
// program of its size, checking it builds no vector clock, and a clean
// check forms no binding label. The one allocation is the report. The
// schedule is the paper-scale subLSTM at batch 16, level FKS, one worker,
// with every epoch's stream variables at their most spread-out choice.
func TestCheckScheduleAllocBudget(t *testing.T) {
	build, _ := models.Get("sublstm")
	p := enumerate.Enumerate(build(models.DefaultConfig("sublstm", 16)).G, enumerate.PresetOptions(enumerate.PresetFKS))
	for _, v := range p.StreamVars {
		v.SetChoice(len(v.Labels) - 1)
	}
	s := verify.BuildSchedule(p, verify.Spec{})
	if r := verify.CheckSchedule(p, s); !r.OK() || len(s.Streams) < 2 {
		t.Fatalf("schedule over %d streams has findings %v", len(s.Streams), r.Findings)
	}
	pinAllocs(t, "CheckSchedule of a checked program", 20, 1, func() { verify.CheckSchedule(p, s) })
}

// TestExplorerAdvanceAllocBudget pins an exploring trial's explorer work,
// Observe then Advance, on a trial that freezes nothing: the paper-scale
// subLSTM at batch 16, level FKS, part-way through exploration, so prefix
// contexts of frozen siblings are in play. Each derived context comes
// from its node's memo and each key from its variable's cache, so the
// walk allocates nothing. Raising the samples a key needs keeps the
// exploring variable recording into one key (already stored, so the
// Record allocates nothing either) without freezing it.
func TestExplorerAdvanceAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a paper-scale model")
	}
	shape, err := job.Shape{Model: "sublstm", Scale: job.Default, Batch: 16, Level: "FKS", Workers: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := wire.NewSession(shape.Build(), shape.SessionConfig())
	for i := 0; i < 600; i++ {
		s.Step()
	}
	e := s.Exp
	if frozen, total := e.FrozenCount(); e.Done() || frozen == 0 || frozen == total {
		t.Fatalf("explorer has %d of %d variables frozen, want part-way", frozen, total)
	}
	metrics := map[string]float64{}
	for _, v := range e.Vars() {
		metrics[v.ID] = 100
	}
	s.Ix.SetSamples(1 << 30)
	trial := func() {
		e.Observe(metrics)
		e.Advance()
	}
	trial()
	frozen, _ := e.FrozenCount()
	pinAllocs(t, "Observe and Advance, nothing freezing", 20, 0, trial)
	if now, _ := e.FrozenCount(); now != frozen || e.Err() != nil {
		t.Fatalf("the pinned trials froze %d variables (err %v)", now-frozen, e.Err())
	}
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
