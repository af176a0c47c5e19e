package astra

import (
	"fmt"

	"astra/internal/autodiff"
	"astra/internal/data"
	"astra/internal/graph"
	"astra/internal/models"
	"astra/internal/tensor"
)

// Tensor is a symbolic tensor value in a model under construction.
type Tensor struct{ v *graph.Value }

// ModelBuilder builds a custom training graph through the public API — the
// way a researcher would define a novel cell that no hand-optimized library
// covers. Operators mirror a small PyTorch-like surface; provenance scopes
// and timesteps drive the enumerator's fusion and equivalence analysis, so
// structure your cell code with InScope/AtStep the way you would structure
// Python modules and unrolled loops.
type ModelBuilder struct {
	name string
	g    *graph.Graph
	b    *graph.Builder
	rng  *tensor.RNG
	m    *models.Model
	done bool
}

// NewModelBuilder starts a custom model named name.
func NewModelBuilder(name string) *ModelBuilder {
	g := graph.New()
	mb := &ModelBuilder{
		name: name,
		g:    g,
		b:    graph.NewBuilder(g),
		rng:  tensor.NewRNG(0xa57a),
	}
	mb.m = &models.Model{Name: name, G: g}
	return mb
}

// Input declares a per-mini-batch input of shape [rows, cols].
func (mb *ModelBuilder) Input(name string, rows, cols int) Tensor {
	return Tensor{mb.g.Input(name, rows, cols)}
}

// Param declares a trainable weight of shape [rows, cols], randomly
// initialized (deterministically).
func (mb *ModelBuilder) Param(name string, rows, cols int) Tensor {
	return Tensor{mb.g.Param(name, graph.Gaussian(mb.rng, 0.08, rows, cols))}
}

// Zeros declares a constant zero matrix (e.g. an initial recurrent state).
func (mb *ModelBuilder) Zeros(name string, rows, cols int) Tensor {
	return Tensor{mb.g.Const(name, graph.Zeros(rows, cols))}
}

// InScope runs fn under a nested provenance scope.
func (mb *ModelBuilder) InScope(scope string, fn func()) { mb.b.InScope(scope, fn) }

// AtStep runs fn at a recurrence timestep.
func (mb *ModelBuilder) AtStep(t int, fn func()) { mb.b.AtStep(t, fn) }

// MatMul emits x × y.
func (mb *ModelBuilder) MatMul(x, y Tensor) Tensor { return Tensor{mb.b.MatMul(x.v, y.v)} }

// Add emits x + y elementwise.
func (mb *ModelBuilder) Add(x, y Tensor) Tensor { return Tensor{mb.b.Add(x.v, y.v)} }

// Sub emits x − y elementwise.
func (mb *ModelBuilder) Sub(x, y Tensor) Tensor { return Tensor{mb.b.Sub(x.v, y.v)} }

// Mul emits x ⊙ y elementwise.
func (mb *ModelBuilder) Mul(x, y Tensor) Tensor { return Tensor{mb.b.Mul(x.v, y.v)} }

// Scale emits s·x.
func (mb *ModelBuilder) Scale(x Tensor, s float64) Tensor { return Tensor{mb.b.Scale(x.v, s)} }

// Sigmoid emits the logistic nonlinearity.
func (mb *ModelBuilder) Sigmoid(x Tensor) Tensor { return Tensor{mb.b.Sigmoid(x.v)} }

// Tanh emits tanh.
func (mb *ModelBuilder) Tanh(x Tensor) Tensor { return Tensor{mb.b.Tanh(x.v)} }

// ReLU emits max(0, x).
func (mb *ModelBuilder) ReLU(x Tensor) Tensor { return Tensor{mb.b.ReLU(x.v)} }

// AddBias broadcasts a [1,n] bias row over x.
func (mb *ModelBuilder) AddBias(x, bias Tensor) Tensor { return Tensor{mb.b.AddBias(x.v, bias.v)} }

// Softmax emits a row-wise softmax.
func (mb *ModelBuilder) Softmax(x Tensor) Tensor { return Tensor{mb.b.Softmax(x.v)} }

// ConcatRows stacks tensors along the row dimension.
func (mb *ModelBuilder) ConcatRows(xs ...Tensor) Tensor {
	vs := make([]*graph.Value, len(xs))
	for i, x := range xs {
		vs[i] = x.v
	}
	return Tensor{mb.b.ConcatRows(vs...)}
}

// ConcatCols concatenates tensors along the column dimension.
func (mb *ModelBuilder) ConcatCols(xs ...Tensor) Tensor {
	vs := make([]*graph.Value, len(xs))
	for i, x := range xs {
		vs[i] = x.v
	}
	return Tensor{mb.b.ConcatCols(vs...)}
}

// SliceCols extracts columns [lo, hi).
func (mb *ModelBuilder) SliceCols(x Tensor, lo, hi int) Tensor {
	return Tensor{mb.b.SliceCols(x.v, lo, hi)}
}

// Lookup gathers embedding-table rows by token id.
func (mb *ModelBuilder) Lookup(table, ids Tensor) Tensor {
	return Tensor{mb.b.Lookup(table.v, ids.v)}
}

// CrossEntropyLoss attaches the softmax + mean-NLL loss over per-row class
// targets; every model must end with it.
func (mb *ModelBuilder) CrossEntropyLoss(logits, targets Tensor) Tensor {
	return Tensor{mb.b.CrossEntropy(logits.v, targets.v)}
}

// Finish validates the graph, runs reverse-mode autodiff to append the
// backward pass, and returns the compiled-ready model.
func (mb *ModelBuilder) Finish() (*Model, error) {
	if mb.done {
		return nil, fmt.Errorf("astra: Finish called twice")
	}
	mb.done = true
	if err := mb.g.Validate(); err != nil {
		return nil, fmt.Errorf("astra: invalid model: %w", err)
	}
	if mb.g.Loss == nil {
		return nil, fmt.Errorf("astra: model has no loss; call CrossEntropyLoss")
	}
	if _, err := autodiff.Backward(mb.g); err != nil {
		return nil, fmt.Errorf("astra: autodiff: %w", err)
	}
	// A custom model has no standard input synthesis; derive a config from
	// its shapes for the session plumbing that needs one.
	mb.m.Cfg = models.Config{Backward: true, Vocab: 2}
	return &Model{m: mb.m}, nil
}

// SampleSentenceLengths draws n sentence lengths from the synthetic PTB
// length distribution used by the dynamic-graph experiment (§5.5).
func SampleSentenceLengths(n int, seed uint64) []int { return data.SampleLengths(n, seed) }

// LengthBuckets computes k equal-frequency bucket boundaries from sampled
// lengths; BucketFor maps a length to its (nearest larger) bucket.
func LengthBuckets(lengths []int, k int) []int { return data.Buckets(lengths, k) }

// BucketFor maps a sentence length to its bucket boundary.
func BucketFor(buckets []int, length int) int { return data.BucketFor(buckets, length) }
