// Package models builds the training graphs of the five models evaluated
// in the paper (§6.1): SC-RNN, MI-LSTM, subLSTM, the PTB stacked LSTM
// ("large" configuration), and a GNMT-style encoder/decoder with attention.
//
// The models are written the way a researcher would write them in PyTorch:
// one GEMM per gate, explicit elementwise cell math, a Python-ish module
// scope per layer, per-timestep unrolling. No manual fusion — producing
// exactly the long-tail graphs whose optimization Astra automates. The
// backward pass comes from package autodiff, as in a real framework.
package models

import (
	"fmt"
	"sort"

	"astra/internal/autodiff"
	"astra/internal/graph"
	"astra/internal/tensor"
)

// Config sizes a model build.
type Config struct {
	Batch  int
	SeqLen int
	Hidden int
	Embed  int
	Vocab  int
	Layers int // stacked/GNMT layer count (per direction for GNMT)
	// Embedding selects token-id inputs through an embedding table; the
	// XLA comparison (§6.6) uses Embedding=false variants where the
	// per-step inputs are dense tensors.
	Embedding bool
	// Backward appends the autodiff backward pass (on by default through
	// Build; disable for forward-only studies).
	Backward bool
	Seed     uint64
}

// Model is a built training graph plus the handles needed to feed it.
type Model struct {
	Name string
	Cfg  Config
	G    *graph.Graph

	// IDs holds the per-timestep token-id inputs when Cfg.Embedding; Xs
	// holds the per-timestep dense inputs otherwise. For GNMT both the
	// encoder and decoder sequences are included (encoder first).
	IDs []*graph.Value
	Xs  []*graph.Value
	// Targets is the [rows,1] class-id input of the final cross-entropy.
	Targets *graph.Value
}

// Builder constructs a model graph from a config.
type Builder func(Config) *Model

var registry = map[string]Builder{
	"scrnn":       SCRNN,
	"milstm":      MILSTM,
	"sublstm":     SubLSTM,
	"stackedlstm": StackedLSTM,
	"gnmt":        GNMT,
}

// Names returns the registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns the builder for a registered model name.
func Get(name string) (Builder, bool) {
	b, ok := registry[name]
	return b, ok
}

// DefaultConfig returns the evaluation-scale configuration for a model at a
// given mini-batch size, mirroring §6.1: PTB vocabulary for SC-RNN,
// subLSTM and the stacked LSTM; the Hutter character vocabulary for
// MI-LSTM; the stacked LSTM uses the "large" 1500-unit configuration.
func DefaultConfig(name string, batch int) Config {
	switch name {
	case "scrnn":
		return Config{Batch: batch, SeqLen: 35, Hidden: 512, Embed: 256, Vocab: 10000, Embedding: true, Backward: true}
	case "milstm":
		return Config{Batch: batch, SeqLen: 32, Hidden: 2048, Embed: 256, Vocab: 205, Embedding: true, Backward: true}
	case "sublstm":
		return Config{Batch: batch, SeqLen: 35, Hidden: 650, Embed: 256, Vocab: 10000, Embedding: true, Backward: true}
	case "stackedlstm":
		return Config{Batch: batch, SeqLen: 35, Hidden: 1500, Embed: 1500, Vocab: 10000, Layers: 2, Embedding: true, Backward: true}
	case "gnmt":
		return Config{Batch: batch, SeqLen: 18, Hidden: 512, Embed: 512, Vocab: 12000, Layers: 4, Embedding: true, Backward: true}
	case "rhn":
		return Config{Batch: batch, SeqLen: 35, Hidden: 830, Embed: 256, Vocab: 10000, Layers: 3, Embedding: true, Backward: true}
	case "attlstm":
		return Config{Batch: batch, SeqLen: 35, Hidden: 1000, Embed: 512, Vocab: 10000, Embedding: true, Backward: true}
	default:
		panic(fmt.Sprintf("models: no default config for %q", name))
	}
}

// TinyConfig returns a small configuration of the same structure, used by
// value-preservation tests where graphs are executed on the CPU oracle.
func TinyConfig(name string, batch int) Config {
	c := DefaultConfig(name, batch)
	c.SeqLen = 4
	c.Hidden = 8
	c.Embed = 8
	c.Vocab = 11
	if c.Layers > 2 {
		c.Layers = 2
	}
	return c
}

// finish validates the graph and appends the backward pass if requested.
func finish(m *Model) *Model {
	if err := m.G.Validate(); err != nil {
		panic(fmt.Sprintf("models: %s invalid: %v", m.Name, err))
	}
	if m.Cfg.Backward {
		if _, err := autodiff.Backward(m.G); err != nil {
			panic(fmt.Sprintf("models: %s backward: %v", m.Name, err))
		}
	}
	return m
}

// MakeInputs synthesizes a deterministic mini-batch: token ids (or dense
// inputs) and targets drawn from the given seed. The values never affect
// timing (§4.1) but do drive the value-preservation oracle.
//
// Inputs are classified by how the graph consumes them, so it also works
// for custom models built through the public API: an input feeding a
// lookup's id slot or a cross-entropy's target slot gets class ids bounded
// by the consumer's table/logit width; everything else gets dense noise.
func (m *Model) MakeInputs(seed uint64) graph.Env {
	rng := tensor.NewRNG(seed | 1)
	env := graph.Env{}
	cons := m.G.Consumers()
	for _, in := range m.G.Inputs {
		bound := 0
		for _, n := range cons[in] {
			switch {
			case n.Op == graph.OpLookup && n.Inputs[1] == in:
				if b := n.Inputs[0].Shape.Rows(); bound == 0 || b < bound {
					bound = b
				}
			case (n.Op == graph.OpCrossEntropy || n.Op == graph.OpCrossEntropyGrad) && n.Inputs[1] == in:
				// Loss targets are a fixed function of the row index (not
				// of the seed): across fresh mini-batches the task stays
				// learnable, so SGD tests can watch the loss fall.
				t := tensor.New(in.Shape...)
				cols := n.Inputs[0].Shape.Cols()
				for i := range t.Data() {
					t.Data()[i] = float64((i * 131) % cols)
				}
				env[in] = t
				bound = -1
			case n.Op == graph.OpLookupGrad && n.Inputs[0] == in:
				if b := n.Attr.N; bound == 0 || b < bound {
					bound = b
				}
			}
		}
		switch {
		case bound == -1:
			// already bound above (loss targets)
		case bound > 0:
			t := tensor.New(in.Shape...)
			for i := range t.Data() {
				t.Data()[i] = float64(rng.Intn(bound))
			}
			env[in] = t
		default:
			env[in] = tensor.Randn(rng, 0.5, in.Shape...)
		}
	}
	return env
}

// inputsFor declares the per-timestep inputs for a sequence of length T
// under the given scope prefix and returns the dense x_t values, creating
// an embedding table + lookups when cfg.Embedding is set.
func inputsFor(m *Model, b *graph.Builder, rng *tensor.RNG, prefix string, T int) []*graph.Value {
	cfg := m.Cfg
	xs := make([]*graph.Value, T)
	if cfg.Embedding {
		table := m.G.Param(prefix+"emb", graph.Gaussian(rng, 0.1, cfg.Vocab, cfg.Embed))
		for t := 0; t < T; t++ {
			ids := m.G.Input(fmt.Sprintf("%sids%d", prefix, t), cfg.Batch, 1)
			m.IDs = append(m.IDs, ids)
			tt := t
			b.InScope("embed", func() {
				b.AtStep(tt, func() {
					xs[tt] = b.Lookup(table, ids)
				})
			})
		}
		return xs
	}
	for t := 0; t < T; t++ {
		x := m.G.Input(fmt.Sprintf("%sx%d", prefix, t), cfg.Batch, cfg.Embed)
		m.Xs = append(m.Xs, x)
		xs[t] = x
	}
	return xs
}

// zeroState returns a constant zero matrix used as the initial hidden and
// cell state.
func zeroState(g *graph.Graph, name string, rows, cols int) *graph.Value {
	return g.Const(name, graph.Zeros(rows, cols))
}
