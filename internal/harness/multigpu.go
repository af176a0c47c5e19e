package harness

import (
	"fmt"

	"astra/internal/adapt"
	"astra/internal/distsim"
	"astra/internal/job"
	"astra/internal/parallel"
	"astra/internal/verify"
	"astra/internal/wire"
)

func init() {
	experiments["ext-multigpu"] = ExtMultiGPU
}

// MultiGPUComparison is the structured result behind one ext-multigpu row:
// the bulk-synchronous baseline, the online-explored schedule, and the
// offline exhaustive optimum for one model/fabric pair.
type MultiGPUComparison struct {
	Model   string
	Fabric  string
	Workers int
	// BulkSyncUs is the step with one bucket serialized on the main stream.
	BulkSyncUs float64
	// ExploredUs is the step under the explorer's frozen comm schedule,
	// with its chosen bucket/placement labels.
	ExploredUs     float64
	ExploredBucket string
	ExploredPlace  string
	// ExhaustiveUs is the best fixed schedule from measuring the whole
	// bucket × placement space offline.
	ExhaustiveUs     float64
	ExhaustiveBucket string
	ExhaustivePlace  string
}

// OverlapGainPct is how much the explored schedule beats bulk-sync by.
func (c MultiGPUComparison) OverlapGainPct() float64 {
	if c.BulkSyncUs == 0 {
		return 0
	}
	return 100 * (1 - c.ExploredUs/c.BulkSyncUs)
}

// GapPct is the explored schedule's distance from the exhaustive optimum
// (>= 0 up to measurement identity; the acceptance bar is 2%).
func (c MultiGPUComparison) GapPct() float64 {
	if c.ExhaustiveUs == 0 {
		return 0
	}
	return 100 * (c.ExploredUs/c.ExhaustiveUs - 1)
}

// dataParallelShape is the job of one data-parallel cell of the multi-GPU
// experiments: model at the default scale and level FK, the global batch
// split over n workers exchanging gradients over fabric.
func dataParallelShape(model, fabric string, globalBatch, n int) job.Shape {
	return job.Shape{Model: model, Scale: job.Default, Batch: globalBatch / n, Level: "FK", Workers: n, Fabric: fabric}
}

// dataParallel runs one data-parallel cell (dataParallelShape). A nil sched
// leaves the communication schedule to the explorer; otherwise CommAdapt is
// off and sched fixes the bucket cap and placement. prior, when not nil,
// guides the exploration. It explores to convergence and returns the
// session with its first wired cluster step: the slowest worker's batch,
// gradient exchange included.
func dataParallel(model, fabric string, globalBatch, n int, sched *distsim.Schedule, prior adapt.Prior) (*wire.Session, wire.BatchResult, error) {
	if n < 1 || globalBatch%n != 0 {
		return nil, wire.BatchResult{}, fmt.Errorf("harness: batch %d does not split over %d workers", globalBatch, n)
	}
	sh, err := dataParallelShape(model, fabric, globalBatch, n).Normalize()
	if err != nil {
		return nil, wire.BatchResult{}, fmt.Errorf("harness: %w", err)
	}
	cfg := sh.SessionConfig()
	cfg.Prior = prior
	if sched != nil {
		kb, err := verify.BucketKB(sched.Bucket)
		if err != nil {
			return nil, wire.BatchResult{}, err
		}
		cfg.Options.CommAdapt = false
		cfg.Comm.DefaultBucketKB, cfg.Comm.DefaultPlacement = kb, sched.Placement
	}
	s := wire.NewSession(sh.Build(), cfg)
	s.Explore()
	if err := s.Err(); err != nil {
		return nil, wire.BatchResult{}, fmt.Errorf("harness: exploration: %w", err)
	}
	return s, s.Step(), nil
}

// exhaustive measures every fixed communication schedule of a cell whose
// gradients total gradBytes, and returns the fastest step and its
// schedule: the offline optimum the online explorer is judged against.
func exhaustive(model, fabric string, globalBatch, n int, gradBytes int64) (float64, distsim.Schedule, error) {
	var best distsim.Schedule
	bestUs := 0.0
	for _, sched := range distsim.Schedules(gradBytes) {
		_, res, err := dataParallel(model, fabric, globalBatch, n, &sched, nil)
		if err != nil {
			return 0, best, err
		}
		if bestUs == 0 || res.TotalUs < bestUs {
			best, bestUs = sched, res.TotalUs
		}
	}
	return bestUs, best, nil
}

// CompareMultiGPU measures one model/fabric pair at a fixed worker count:
// bulk-sync baseline, online-explored schedule, and the exhaustive sweep.
func CompareMultiGPU(model, fabric string, globalBatch, workers int) (MultiGPUComparison, error) {
	if workers < 2 {
		return MultiGPUComparison{}, fmt.Errorf("harness: %d workers exchange no gradients (valid: 2 or more)", workers)
	}
	bulkSync := distsim.BulkSync()
	bulk, bulkRes, err := dataParallel(model, fabric, globalBatch, workers, &bulkSync, nil)
	if err != nil {
		return MultiGPUComparison{}, err
	}
	explored, res, err := dataParallel(model, fabric, globalBatch, workers, nil, nil)
	if err != nil {
		return MultiGPUComparison{}, err
	}
	bestUs, best, err := exhaustive(model, fabric, globalBatch, workers, bulk.Plan.GradBytes())
	if err != nil {
		return MultiGPUComparison{}, err
	}
	return MultiGPUComparison{
		Model:            model,
		Fabric:           fabric,
		Workers:          workers,
		BulkSyncUs:       bulkRes.TotalUs,
		ExploredUs:       res.TotalUs,
		ExploredBucket:   explored.Plan.CommBucketVar.CurrentLabel(),
		ExploredPlace:    explored.Plan.CommPlaceVar.CurrentLabel(),
		ExhaustiveUs:     bestUs,
		ExhaustiveBucket: best.Bucket,
		ExhaustivePlace:  best.Placement,
	}, nil
}

// ExtMultiGPU demonstrates the §3.4/§6.7 extension dimension at the event
// level: gradient exchange is simulated as ring all-reduce kernels on a
// per-worker comm stream, and the bucket size / stream placement are
// explored online per mini-batch like every other schedule choice. Each row
// compares the bulk-synchronous baseline (what the old closed-form model
// described), the explorer's frozen schedule, and the offline exhaustive
// optimum over the same choice space.
func ExtMultiGPU(o Options) (*Table, error) {
	t := &Table{
		ID:    "ext-multigpu",
		Title: "Event-level data-parallel step, 4 workers, global batch 64 (µs, lower is better)",
		Header: []string{
			"Model", "fabric", "bulk-sync", "explored", "gain", "exhaustive", "gap", "schedule",
		},
		Notes: []string{
			"bulk-sync: one bucket on the main stream, exchange strictly after compute",
			"explored: bucket size and comm-stream placement chosen online by the explorer",
			"exhaustive: best fixed schedule from measuring the whole bucket × placement space",
			"schedule: the explorer's frozen choice (bucket KB / stream)",
		},
	}
	models := []string{"scrnn", "sublstm"}
	if !o.Quick {
		models = append(models, "milstm", "stackedlstm")
	}
	fabrics := distsim.Fabrics()
	rows, err := parallel.Map(o.workers(), len(models)*len(fabrics), func(i int) ([]string, error) {
		name, fabric := models[i/len(fabrics)], fabrics[i%len(fabrics)]
		c, err := CompareMultiGPU(name, fabric.Name, 64, 4)
		if err != nil {
			return nil, err
		}
		o.progress("ext-multigpu %s %s done", name, fabric.Name)
		return []string{
			name, fabric.Name,
			fmt.Sprintf("%.0f", c.BulkSyncUs),
			fmt.Sprintf("%.0f", c.ExploredUs),
			fmt.Sprintf("%.1f%%", c.OverlapGainPct()),
			fmt.Sprintf("%.0f", c.ExhaustiveUs),
			fmt.Sprintf("%.2f%%", c.GapPct()),
			c.ExploredBucket + "/" + c.ExploredPlace,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
