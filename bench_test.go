package astra

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark regenerates its experiment via
// the internal harness in Quick mode (batch sizes 16/32 — the sizes the
// paper says matter for long-tail experimentation) and reports headline
// numbers as custom metrics. The full sweeps live behind
// `go run ./cmd/astra-bench -experiment all`.
//
// Substrate micro-benchmarks at the bottom measure the simulator and
// explorer machinery itself.

import (
	"strconv"
	"testing"

	"astra/internal/adapt"
	"astra/internal/baselines"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/harness"
	"astra/internal/job"
	"astra/internal/kernels"
	"astra/internal/models"
	"astra/internal/profile"
	"astra/internal/wire"
)

// runExperiment regenerates one paper table/figure per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := harness.Run(id, harness.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1GEMMLibraries(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkSection32FusionAnomaly(b *testing.B)    { runExperiment(b, "sec32") }
func BenchmarkFigure1AllocationConflict(b *testing.B) { runExperiment(b, "fig1") }
func BenchmarkFigure2UpdateTree(b *testing.B)         { runExperiment(b, "fig2") }
func BenchmarkTable2SCRNN(b *testing.B)               { runExperiment(b, "table2") }
func BenchmarkTable3MILSTM(b *testing.B)              { runExperiment(b, "table3") }
func BenchmarkTable4SubLSTM(b *testing.B)             { runExperiment(b, "table4") }
func BenchmarkTable5StackedLSTMvsCuDNN(b *testing.B)  { runExperiment(b, "table5") }
func BenchmarkTable6GNMTvsCuDNN(b *testing.B)         { runExperiment(b, "table6") }
func BenchmarkTable7StateSpace(b *testing.B)          { runExperiment(b, "table7") }
func BenchmarkTable8Bucketing(b *testing.B)           { runExperiment(b, "table8") }
func BenchmarkTable9XLA(b *testing.B)                 { runExperiment(b, "table9") }

// BenchmarkEndToEnd reports, per model, the paper's headline metric as
// custom benchmark outputs: wired speedup over native PyTorch and the
// number of configurations explored.
func BenchmarkEndToEnd(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			build, _ := models.Get(name)
			m := build(models.DefaultConfig(name, 16))
			var speedup float64
			var configs int
			for i := 0; i < b.N; i++ {
				nat := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
				s := wire.NewSession(m, wire.SessionConfig{
					Device:  gpusim.P100(),
					Options: enumerate.PresetOptions(enumerate.PresetFKS),
					Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
				})
				s.Explore()
				speedup = nat.TimeUs / s.WiredTimeUs()
				configs = s.Trials
			}
			b.ReportMetric(speedup, "speedup")
			b.ReportMetric(float64(configs), "configs")
		})
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkSimulatorLaunch measures the discrete-event engine's kernel
// throughput: launches + drain for a mixed two-stream workload.
func BenchmarkSimulatorLaunch(b *testing.B) {
	dev := gpusim.NewDevice(gpusim.P100())
	dev.EnsureStreams(2)
	spec := kernels.GEMM(kernels.CuBLAS, kernels.GEMMShape{M: 64, K: 512, N: 512})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			dev.Reset()
		}
		dev.Launch(i%2, spec)
		if i%100 == 99 {
			dev.Synchronize()
		}
	}
}

// BenchmarkGEMMCostModel measures the analytic kernel-spec computation.
func BenchmarkGEMMCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = kernels.GEMM(kernels.Library(i%3), kernels.GEMMShape{M: 8 + i%512, K: 1024, N: 1024})
	}
}

// BenchmarkExplorerTrial measures the update-tree walk per exploration
// trial on a 64-variable parallel tree.
func BenchmarkExplorerTrial(b *testing.B) {
	leaves := make([]*adapt.Tree, 64)
	vars := make([]*adapt.Var, 64)
	for i := range leaves {
		vars[i] = adapt.NewVar("v"+strconv.Itoa(i), "a", "b", "c")
		leaves[i] = adapt.LeafNode(vars[i])
	}
	metrics := map[string]float64{}
	for i, v := range vars {
		metrics[v.ID] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := profile.NewIndex()
		e := adapt.NewExplorerPrior(adapt.NewNode("root", adapt.Parallel, leaves...), ix, "", nil)
		for !e.Done() {
			e.Observe(metrics)
			e.Advance()
		}
	}
}

// BenchmarkEnumerate measures whole-graph compilation (fusion mining,
// partitioning, tree construction) for the paper-scale SC-RNN.
func BenchmarkEnumerate(b *testing.B) {
	build, _ := models.Get("scrnn")
	m := build(models.DefaultConfig("scrnn", 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enumerate.Enumerate(m.G, enumerate.PresetOptions(enumerate.PresetAll))
	}
}

// BenchmarkMiniBatchDispatch measures one wired mini-batch for the
// paper-scale subLSTM: its dispatch and, since it repeats the batch before
// it, the simulator's replay of that batch's timeline.
func BenchmarkMiniBatchDispatch(b *testing.B) {
	build, _ := models.Get("sublstm")
	m := build(models.DefaultConfig("sublstm", 16))
	s := wire.NewSession(m, wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetFK),
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
	})
	s.Explore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkWiredClusterStep measures perfbench wired-dp's op: one wired
// Session.Step of the paper-scale SC-RNN at batch 16, level FKS, over two
// workers on PCIe 3 — both ranks' dispatch and simulation (a replay of the
// previous batch) and the ring all-reduce.
func BenchmarkWiredClusterStep(b *testing.B) {
	shape, err := job.Shape{Model: "scrnn", Scale: job.Default, Batch: 16, Level: "FKS", Workers: 2, Fabric: "pcie3"}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	s := wire.NewSession(shape.Build(), shape.SessionConfig())
	s.Explore()
	s.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// benchKeys is a realistic profile key population: a few hundred distinct
// (context, variable, choice) signatures, as a paper-scale session produces.
func benchKeys() []profile.Key {
	keys := make([]profile.Key, 0, 512)
	for ctx := 0; ctx < 16; ctx++ {
		for v := 0; v < 8; v++ {
			for c := 0; c < 4; c++ {
				keys = append(keys, profile.K(
					"ctx"+strconv.Itoa(ctx), "var"+strconv.Itoa(v), "choice"+strconv.Itoa(c)))
			}
		}
	}
	return keys
}

// BenchmarkProfileIndexRecord measures concurrent Record throughput on the
// sharded index — the write path every exploration trial hits.
func BenchmarkProfileIndexRecord(b *testing.B) {
	ix := profile.NewIndex()
	keys := benchKeys()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ix.Record(keys[i%len(keys)], float64(100+i%7))
			i++
		}
	})
}

// BenchmarkProfileIndexBest measures concurrent Best lookups — the explorer's
// read path when freezing winners — against a populated index.
func BenchmarkProfileIndexBest(b *testing.B) {
	ix := profile.NewIndex()
	labels := []string{"choice0", "choice1", "choice2", "choice3"}
	for _, k := range benchKeys() {
		ix.Record(k, float64(len(k)))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ix.Best("ctx"+strconv.Itoa(i%16), "var"+strconv.Itoa(i%8), labels)
			i++
		}
	})
}

// BenchmarkSimulatorEventLoop measures the pooled event machinery:
// cross-stream RecordEvent/WaitEvent dependencies around every launch, the
// pattern the wirer emits for barrier-parallel exploration.
// Consecutive batches alternate between two GEMM shapes, so no batch
// repeats the one before it and each runs the event loop, not a replay.
func BenchmarkSimulatorEventLoop(b *testing.B) {
	dev := gpusim.NewDevice(gpusim.P100())
	dev.EnsureStreams(4)
	specs := []gpusim.KernelSpec{
		kernels.GEMM(kernels.CuBLAS, kernels.GEMMShape{M: 64, K: 512, N: 512}),
		kernels.GEMM(kernels.CuBLAS, kernels.GEMMShape{M: 64, K: 512, N: 256}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			dev.Synchronize()
			dev.Reset()
		}
		spec := specs[i/256%2]
		src, dst := i%4, (i+1)%4
		dev.Launch(src, spec)
		ev := dev.RecordEvent(src)
		dev.WaitEvent(dst, ev)
		dev.Launch(dst, spec)
	}
	dev.Synchronize()
}
