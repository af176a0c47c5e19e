package harness

import (
	"fmt"

	"astra/internal/baselines"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/parallel"
)

// Table9 reproduces the TensorFlow comparison (§6.6, Table 9): Astra_FK
// (the TF prototype supports only fusion + kernel selection) against native
// TF, TF+XLA and cuDNN where applicable. As in the paper, the models are
// evaluated with the embedding operation removed, because XLA's embedding
// handling bounces through the host and is up to 3x *worse* than native TF
// — that pathological variant is reported in the notes.
func Table9(o Options) (*Table, error) {
	t := &Table{
		ID:     "table9",
		Title:  "TensorFlow prototype: factor speedups relative to native TF (embeddings removed)",
		Header: []string{"Model", "TF", "TF+XLA", "Astra_FK", "cuDNN"},
		Notes: []string{
			"paper (batch 16/32 rows): XLA 0.98-1.45, Astra_FK 1.32-2.0, cuDNN only for stacked LSTM and GNMT",
		},
	}
	type cell struct {
		model string
		batch int
	}
	cells := []cell{
		{"scrnn", 16}, {"scrnn", 32},
		{"milstm", 16}, {"milstm", 32},
		{"sublstm", 16}, {"sublstm", 32},
		{"stackedlstm", 16}, {"stackedlstm", 32},
		{"gnmt", 16}, {"gnmt", 32},
	}
	if o.Quick {
		cells = []cell{{"scrnn", 16}, {"sublstm", 16}, {"stackedlstm", 16}}
	}
	tf := baselines.TensorFlow()
	rows, err := parallel.Map(o.workers(), len(cells), func(i int) ([]string, error) {
		c := cells[i]
		build, _ := models.Get(c.model)
		mcfg := models.DefaultConfig(c.model, c.batch)
		mcfg.Embedding = false
		m := build(mcfg)

		nat := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), tf, nil, nil)
		xla := baselines.RunXLA(m.G, gpusim.NewDevice(gpusim.P100()), nil, nil)

		cfg := defaultShape(c.model, c.batch, "FK").SessionConfig()
		// The TF build interposes at the graph executor: same per-op cost
		// as the XLA executor.
		cfg.Runner.PerOpCPUUs = 3
		astra, _, _ := exploreWired(m, cfg)

		cudnnCol := "-"
		if cud, ok := baselines.RunCuDNN(m, gpusim.NewDevice(gpusim.P100()), tf, nil, nil); ok {
			cudnnCol = f2(nat.TimeUs / cud.TimeUs)
		}
		o.progress("table9 %s-%d done", c.model, c.batch)
		return []string{
			fmt.Sprintf("%s (%d)", c.model, c.batch),
			"1",
			f2(nat.TimeUs / xla.TimeUs),
			fmt.Sprintf("%s (%s)", f2(nat.TimeUs/astra), f2(xla.TimeUs/astra)),
			cudnnCol,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows

	// The embedding pathology the paper describes in prose: XLA with
	// embeddings present is worse than native TF.
	m := defaultShape("scrnn", 16, "FK").Build()
	natE := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), tf, nil, nil)
	xlaE := baselines.RunXLA(m.G, gpusim.NewDevice(gpusim.P100()), nil, nil)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"with embeddings present, XLA runs at %.2fx native TF on SCRNN (paper: ~3x worse) — host round-trips per lookup",
		natE.TimeUs/xlaE.TimeUs))
	return t, nil
}
