package harness

import (
	"fmt"

	"astra/internal/baselines"
	"astra/internal/data"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/parallel"
)

// Table8 reproduces the dynamic-graph experiment (§5.5, Table 8): variable
// sentence lengths violate mini-batch predictability, so Astra buckets the
// input lengths (five equal-frequency buckets calibrated on the PTB length
// distribution: 13, 18, 24, 30, 83), explores independently per bucket, and
// pads each batch to its bucket. The baseline is the native dynamic-graph
// framework, which rebuilds and eagerly dispatches a graph per length.
func Table8(o Options) (*Table, error) {
	const numBatches = 60
	lengths := data.SampleLengths(numBatches, 1234)
	buckets := data.Buckets(data.SampleLengths(20000, 42), 5)

	level := "FKS"
	if o.Quick {
		level = "FK"
	}

	t := &Table{
		ID:     "table8",
		Title:  "Astra bucketed adaptation vs native PyTorch dynamic graphs",
		Header: []string{"Model", "Dynamic graph", "Astra + bucketing"},
		Notes: []string{
			fmt.Sprintf("buckets (equal-frequency over the PTB length distribution): %v", buckets),
			fmt.Sprintf("%d mini-batches sampled; Astra pads each batch to its nearest larger bucket", numBatches),
			"paper: SCRNN-16 1.61, SCRNN-32 1.43, subLSTM-16 2.47, subLSTM-32 2.13, StackedLSTM-16 2.44, StackedLSTM-32 2.22",
		},
	}

	type cell struct {
		model string
		batch int
	}
	cells := []cell{
		{"scrnn", 16}, {"scrnn", 32},
		{"sublstm", 16}, {"sublstm", 32},
		{"stackedlstm", 16}, {"stackedlstm", 32},
	}
	if o.Quick {
		cells = []cell{{"scrnn", 16}, {"sublstm", 16}}
	}

	// The expensive work — one exploration episode per (cell, bucket) —
	// flattens into independent tasks so a 4-worker run keeps every core on
	// an episode; the cheap native baselines parallelize per cell.
	wired, err := parallel.Map(o.workers(), len(cells)*len(buckets), func(i int) (float64, error) {
		c, bLen := cells[i/len(buckets)], buckets[i%len(buckets)]
		build, _ := models.Get(c.model)
		cfg := models.DefaultConfig(c.model, c.batch)
		cfg.SeqLen = bLen
		wired, _, _ := exploreWired(build(cfg), defaultShape(c.model, c.batch, level).SessionConfig())
		o.progress("table8 %s-%d bucket %d done", c.model, c.batch, bLen)
		return wired, nil
	})
	if err != nil {
		return nil, err
	}
	natives, err := parallel.Map(o.workers(), len(cells), func(i int) (float64, error) {
		c := cells[i]
		build, _ := models.Get(c.model)
		// Native dynamic graphs: one eager dispatch per distinct length.
		nativeTime := map[int]float64{}
		var nativeTotal float64
		for _, l := range lengths {
			if _, ok := nativeTime[l]; !ok {
				cfg := models.DefaultConfig(c.model, c.batch)
				cfg.SeqLen = l
				m := build(cfg)
				res := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
				nativeTime[l] = res.TimeUs
			}
			nativeTotal += nativeTime[l]
		}
		return nativeTotal, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cells {
		// Astra with bucketing: one session per bucket, each explored
		// independently (the profile-index keys are per bucket: separate
		// sessions realize the 5x state-space increase of §5.5); steady
		// state runs every batch at its bucket's wired configuration.
		wiredTime := map[int]float64{}
		for bi, bLen := range buckets {
			wiredTime[bLen] = wired[ci*len(buckets)+bi]
		}
		var astraTotal float64
		for _, l := range lengths {
			astraTotal += wiredTime[data.BucketFor(buckets, l)]
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s-%d", c.model, c.batch), "1", f2(natives[ci] / astraTotal),
		})
	}
	return t, nil
}
