package harness

import (
	"fmt"

	"astra/internal/baselines"
	"astra/internal/gpusim"
	"astra/internal/parallel"
)

func init() {
	experiments["extra-models"] = ExtraModels
}

// ExtraModels extends the evaluation to the other two long-tail structures
// the paper's introduction names — Recurrent Highway Networks [39] and
// LSTM with Attention [35] — showing that the same machinery speeds up
// architectures it has never seen, with zero model-specific engineering
// (the paper's §6.7 claim: "add to the library of exploration, and models
// get automatic robust speedup").
func ExtraModels(o Options) (*Table, error) {
	t := &Table{
		ID:     "extra-models",
		Title:  "Long-tail models from the paper's introduction (no cuDNN kernels exist)",
		Header: []string{"Model", "Mini-batch", "PyT", "Astra_FK", "Astra_all", "configs"},
	}
	batches := []int{16, 32}
	names := []string{"rhn", "attlstm"}
	rows, err := parallel.Map(o.workers(), len(names)*len(batches), func(i int) ([]string, error) {
		name, batch := names[i/len(batches)], batches[i%len(batches)]
		sh := defaultShape(name, batch, "FK")
		m := sh.Build()
		nat := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
		wiredFK, _, _ := exploreWired(m, sh.SessionConfig())
		sh.Level = "All"
		wiredAll, trials, _ := exploreWired(m, sh.SessionConfig())
		o.progress("extra-models %s-%d done", name, batch)
		return []string{
			name, fmt.Sprint(batch), "1",
			f2(nat.TimeUs / wiredFK), f2(nat.TimeUs / wiredAll), fmt.Sprint(trials),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
