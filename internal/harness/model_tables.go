package harness

import (
	"fmt"

	"astra/internal/baselines"
	"astra/internal/gpusim"
	"astra/internal/job"
	"astra/internal/models"
	"astra/internal/parallel"
	"astra/internal/wire"
)

// defaultShape is the single-worker job of a zoo model at the paper's
// §6.1 evaluation scale.
func defaultShape(model string, batch int, level string) job.Shape {
	return job.Shape{Model: model, Scale: job.Default, Batch: batch, Level: level, Workers: 1}
}

// exploreWired compiles m under cfg, explores to convergence and returns
// (wired batch time, exploration trials, alloc strategies).
func exploreWired(m *models.Model, cfg wire.SessionConfig) (float64, int, int) {
	s := wire.NewSession(m, cfg)
	s.Explore()
	return s.WiredTimeUs(), s.Trials, len(s.Plan.Allocs)
}

// speedupTable renders Tables 2–4: factor speedup relative to native
// PyTorch for the cumulative Astra presets across mini-batch sizes. Every
// (batch, level) cell is an independent exploration episode — its own
// model build, native baseline and session — so the cells fan out across
// Options.Parallel workers and merge back in canonical order.
func speedupTable(id, model string, o Options) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s speedup vs native PyTorch", model),
		Header: []string{"Mini-batch", "PyT", "Astra_F", "Astra_FK", "Astra_FKS", "Astra_all"},
	}
	levels := []string{"F", "FK", "FKS", "All"}
	batches := o.batches()
	cells, err := parallel.Map(o.workers(), len(batches)*len(levels), func(i int) (string, error) {
		sh := defaultShape(model, batches[i/len(levels)], levels[i%len(levels)])
		m := sh.Build()
		nat := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
		wired, _, _ := exploreWired(m, sh.SessionConfig())
		o.progress("%s %s batch=%d %s done", id, model, sh.Batch, sh.Level)
		return f2(nat.TimeUs / wired), nil
	})
	if err != nil {
		return nil, err
	}
	for bi, batch := range batches {
		row := []string{fmt.Sprint(batch), "1"}
		row = append(row, cells[bi*len(levels):(bi+1)*len(levels)]...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// cudnnTable renders Tables 5–6: performance relative to PyTorch+cuDNN for
// the models (partially) covered by the hand-optimized compound kernels.
// Cells parallelize exactly like speedupTable's.
func cudnnTable(id, model string, o Options) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s performance relative to cuDNN", model),
		Header: []string{"Mini-batch", "PyT", "cuDNN", "Astra_F", "Astra_FK", "Astra_all"},
	}
	levels := []string{"F", "FK", "All"}
	batches := o.batches()
	type cell struct{ pyt, val string }
	cells, err := parallel.Map(o.workers(), len(batches)*len(levels), func(i int) (cell, error) {
		sh := defaultShape(model, batches[i/len(levels)], levels[i%len(levels)])
		m := sh.Build()
		nat := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
		cud, ok := baselines.RunCuDNN(m, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
		if !ok {
			return cell{}, fmt.Errorf("harness: cuDNN does not cover %s", model)
		}
		wired, _, _ := exploreWired(m, sh.SessionConfig())
		o.progress("%s %s batch=%d %s done", id, model, sh.Batch, sh.Level)
		return cell{pyt: f2(cud.TimeUs / nat.TimeUs), val: f2(cud.TimeUs / wired)}, nil
	})
	if err != nil {
		return nil, err
	}
	for bi, batch := range batches {
		row := []string{fmt.Sprint(batch), cells[bi*len(levels)].pyt, "1"}
		for li := range levels {
			row = append(row, cells[bi*len(levels)+li].val)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
