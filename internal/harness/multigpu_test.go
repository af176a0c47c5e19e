package harness

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"astra/internal/distsim"
	"astra/internal/gpusim"
	"astra/internal/wire"
)

// TestMultiGPUExplorationMatchesExhaustive is the acceptance bar of the
// event-level comm dimension: for two models on both fabrics, the online
// explorer's frozen bucket/placement schedule must land within 2% of the
// best schedule found by exhaustively measuring the whole space, and the
// overlap must beat the bulk-synchronous baseline on at least one pair.
func TestMultiGPUExplorationMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute experiment")
	}
	models := []string{"scrnn", "sublstm"}
	overlapWins := 0
	for _, name := range models {
		for _, fabric := range distsim.Fabrics() {
			c, err := CompareMultiGPU(name, fabric.Name, 64, 4)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, fabric.Name, err)
			}
			if gap := c.GapPct(); gap > 2.0 {
				t.Errorf("%s/%s: explored %v (bucket=%s place=%s) is %.2f%% off exhaustive best %v (bucket=%s place=%s)",
					name, fabric.Name, c.ExploredUs, c.ExploredBucket, c.ExploredPlace,
					gap, c.ExhaustiveUs, c.ExhaustiveBucket, c.ExhaustivePlace)
			}
			if c.ExploredUs < c.BulkSyncUs {
				overlapWins++
			}
			t.Logf("%s/%s: bulk=%.0f explored=%.0f (gain %.1f%%) exhaustive=%.0f (gap %.2f%%) schedule=%s/%s",
				name, fabric.Name, c.BulkSyncUs, c.ExploredUs, c.OverlapGainPct(),
				c.ExhaustiveUs, c.GapPct(), c.ExploredBucket, c.ExploredPlace)
		}
	}
	if overlapWins == 0 {
		t.Error("overlapped gradient exchange never beat the bulk-synchronous baseline")
	}
}

// TestDataParallelGoldens pins the quick multi-GPU tables byte for byte:
// the goldens were captured from `astra-bench -quick -experiment <id>`
// before the experiments moved onto job.Shape lowering.
func TestDataParallelGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("two quick experiments")
	}
	for _, id := range []string{"ext-multigpu", "ext-costmodel"} {
		want, err := os.ReadFile(filepath.Join("testdata", id+".quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := Run(id, Options{Quick: true, Parallel: -1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := tab.String(); got != string(want) {
			t.Errorf("%s differs from its golden\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

func TestDataParallelValidation(t *testing.T) {
	if _, _, err := dataParallel("scrnn", "pcie3", 32, 0, nil, nil); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, _, err := dataParallel("scrnn", "pcie3", 30, 4, nil, nil); err == nil {
		t.Fatal("indivisible batch accepted")
	}
	if _, _, err := dataParallel("nope", "pcie3", 32, 2, nil, nil); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, _, err := dataParallel("scrnn", "token-ring", 32, 2, nil, nil); err == nil {
		t.Fatal("unknown fabric accepted")
	}
	if _, _, err := dataParallel("scrnn", "pcie3", 32, 2, &distsim.Schedule{Bucket: "x", Placement: "main"}, nil); err == nil {
		t.Fatal("bad bucket label accepted")
	}
	if _, err := CompareMultiGPU("scrnn", "pcie3", 32, 1); err == nil {
		t.Fatal("one-worker comparison accepted")
	}
}

// computeOnlyUs is the compute-only time of a data-parallel session's
// wired mini-batch share: the same plan and frozen bindings on a fresh
// device with the gradient exchange off.
func computeOnlyUs(s *wire.Session) float64 {
	rc := s.Runner.Cfg
	rc.Comm = wire.CommConfig{}
	return wire.NewRunner(s.Plan, gpusim.NewDevice(gpusim.P100()), rc).RunBatch(nil, nil).TotalUs
}

// stepOn runs a data-parallel cell, explored, on an interconnect outside
// the fabric table: the cell's shape with the link parameters replaced.
func stepOn(t *testing.T, ic distsim.Interconnect, model string, globalBatch, n int) float64 {
	t.Helper()
	sh, err := dataParallelShape(model, "", globalBatch, n).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sh.SessionConfig()
	cfg.Comm.BytesPerUs, cfg.Comm.LatencyUs, cfg.Comm.Fabric = ic.BytesPerUs, ic.LatencyUs, ic.Name
	s := wire.NewSession(sh.Build(), cfg)
	s.Explore()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return s.Step().TotalUs
}

// fastest returns the index of the shortest step: for a fixed global
// batch, the worker count with the highest throughput.
func fastest(stepUs []float64) int {
	best := 0
	for i, us := range stepUs {
		if us < stepUs[best] {
			best = i
		}
	}
	return best
}

func TestDataParallelTradeoff(t *testing.T) {
	// The fundamental shape: per-device compute falls with more workers,
	// the (analytic) all-reduce term rises, and there is a sweet spot —
	// measured, not modeled.
	pcie := distsim.PCIe()
	cands := []int{1, 2, 4, 8}
	var perDevice, allReduce, stepUs []float64
	for _, n := range cands {
		s, res, err := dataParallel("scrnn", pcie.Name, 64, n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		compute := res.TotalUs
		if n > 1 {
			compute = computeOnlyUs(s)
			if res.CommUs <= 0 || res.CommSpanUs <= 0 {
				t.Fatalf("n=%d exchanged no gradients: %+v", n, res)
			}
			if res.TotalUs < compute {
				t.Fatalf("n=%d step %v faster than compute alone %v", n, res.TotalUs, compute)
			}
			if s.Plan.CommBucketVar == nil || s.Plan.CommPlaceVar == nil {
				t.Fatalf("n=%d explored no comm schedule", n)
			}
		} else if res.CommUs != 0 {
			t.Fatalf("n=1 communicated: %+v", res)
		}
		perDevice = append(perDevice, compute)
		allReduce = append(allReduce, pcie.RingAllReduceUs(s.Plan.GradBytes(), n))
		stepUs = append(stepUs, res.TotalUs)
	}
	if allReduce[0] != 0 {
		t.Fatalf("n=1 should have no all-reduce: %v", allReduce[0])
	}
	for i := 1; i < len(cands); i++ {
		if perDevice[i] >= perDevice[i-1] {
			t.Errorf("per-device compute did not fall: n=%d %v >= n=%d %v",
				cands[i], perDevice[i], cands[i-1], perDevice[i-1])
		}
		if allReduce[i] <= allReduce[i-1] {
			t.Errorf("all-reduce did not rise with workers")
		}
	}
	best := fastest(stepUs)
	if stepUs[best] >= stepUs[0]/0.99 {
		t.Fatalf("scaling never beat one worker: best n=%d at %v vs %v", cands[best], stepUs[best], stepUs[0])
	}
}

func TestFasterFabricShiftsSweetSpot(t *testing.T) {
	// On a faster interconnect the best worker count must be at least as
	// large — the crossover moves right.
	slow := distsim.Interconnect{Name: "slow", BytesPerUs: 1500, LatencyUs: 20}
	cands := []int{1, 2, 4, 8}
	var slowUs, fastUs []float64
	for _, n := range cands {
		slowUs = append(slowUs, stepOn(t, slow, "scrnn", 64, n))
		_, res, err := dataParallel("scrnn", distsim.NVLink().Name, 64, n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		fastUs = append(fastUs, res.TotalUs)
	}
	bestSlow, bestFast := fastest(slowUs), fastest(fastUs)
	if cands[bestFast] < cands[bestSlow] {
		t.Fatalf("faster fabric chose fewer workers (%d) than slower (%d)", cands[bestFast], cands[bestSlow])
	}
}

// TestEventCrossChecksAnalytic is the model-validation bridge: one bucket,
// serialized on the main stream, is exactly the regime the closed-form ring
// formula describes, so the measured first-to-last comm kernel span must
// converge to it within 5% (the residue is per-kernel setup cost).
func TestEventCrossChecksAnalytic(t *testing.T) {
	bulkSync := distsim.BulkSync()
	for _, ic := range distsim.Fabrics() {
		s, res, err := dataParallel("scrnn", ic.Name, 64, 4, &bulkSync, nil)
		if err != nil {
			t.Fatal(err)
		}
		analytic := ic.RingAllReduceUs(s.Plan.GradBytes(), 4)
		if analytic <= 0 || res.CommSpanUs <= 0 {
			t.Fatalf("%s: empty exchange: analytic %v, %+v", ic.Name, analytic, res)
		}
		if rel := math.Abs(res.CommSpanUs-analytic) / analytic; rel > 0.05 {
			t.Errorf("%s: event-level span %v vs analytic %v (%.1f%% off)",
				ic.Name, res.CommSpanUs, analytic, 100*rel)
		}
		// Bulk-sync means exchange strictly after compute: the step must
		// decompose into the two parts.
		if compute := computeOnlyUs(s); res.TotalUs < compute+res.CommSpanUs*0.95 {
			t.Errorf("%s: bulk-sync step %v < compute %v + exchange %v",
				ic.Name, res.TotalUs, compute, res.CommSpanUs)
		}
	}
}

// TestOverlapBeatsBulkSync: a bucketed exchange on a dedicated comm stream
// hides communication behind the remaining backward pass, so the measured
// step must beat the bulk-synchronous baseline — the point of the whole
// comm dimension.
func TestOverlapBeatsBulkSync(t *testing.T) {
	bulkSync := distsim.BulkSync()
	_, bulk, err := dataParallel("scrnn", "pcie3", 64, 4, &bulkSync, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, explored, err := dataParallel("scrnn", "pcie3", 64, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if explored.TotalUs >= bulk.TotalUs {
		t.Fatalf("explored schedule (%v, bucket=%s place=%s) did not beat bulk-sync (%v)",
			explored.TotalUs, s.Plan.CommBucketVar.CurrentLabel(), s.Plan.CommPlaceVar.CurrentLabel(), bulk.TotalUs)
	}
}

// TestExploredMatchesExhaustive: the online explorer's frozen communication
// schedule must land within 2% of the best fixed schedule found by
// exhaustively measuring the whole space.
func TestExploredMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	s, explored, err := dataParallel("scrnn", "pcie3", 64, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bestUs, best, err := exhaustive("scrnn", "pcie3", 64, 4, s.Plan.GradBytes())
	if err != nil {
		t.Fatal(err)
	}
	if explored.TotalUs > bestUs*1.02 {
		t.Fatalf("explored %v (bucket=%s place=%s) vs exhaustive best %v (bucket=%s place=%s): gap %.2f%%",
			explored.TotalUs, s.Plan.CommBucketVar.CurrentLabel(), s.Plan.CommPlaceVar.CurrentLabel(),
			bestUs, best.Bucket, best.Placement, 100*(explored.TotalUs/bestUs-1))
	}
}
