package graph

import (
	"sync"
	"sync/atomic"

	"astra/internal/tensor"
)

// Recipe describes how the data of a parameter or constant is made. A
// graph holds recipes, not tensors: timing never reads a weight, so a
// value's data is made only when something evaluates the graph (see
// Value.Data).
type Recipe struct {
	shape tensor.Shape
	scale float64
	rng   tensor.RNG // the generator at the recipe's first draw
	gauss bool
}

// Gaussian returns the recipe for the tensor tensor.Randn(rng, scale,
// shape...) would draw now, and advances rng past those draws without
// making them: every later draw from rng, and the recipe's data, are
// exactly what the eager fill would have given.
func Gaussian(rng *tensor.RNG, scale float64, shape ...int) Recipe {
	r := Recipe{shape: tensor.Shape(shape).Clone(), scale: scale, rng: *rng, gauss: true}
	rng.Skip(uint64(r.shape.NumElements()) * tensor.NormDraws)
	return r
}

// Zeros returns the recipe for a zero-filled tensor of the given shape.
func Zeros(shape ...int) Recipe {
	return Recipe{shape: tensor.Shape(shape).Clone()}
}

// Shape returns the shape of the tensor the recipe makes.
func (r Recipe) Shape() tensor.Shape { return r.shape }

// New makes a fresh tensor from the recipe; every call returns new storage
// holding the same values.
func (r Recipe) New() *tensor.Tensor {
	if !r.gauss {
		return tensor.New(r.shape...)
	}
	rng := r.rng
	return tensor.Randn(&rng, r.scale, r.shape...)
}

// constant is a parameter's or constant's recipe and its data, made once
// on the first read.
type constant struct {
	recipe Recipe
	once   sync.Once
	data   atomic.Pointer[tensor.Tensor]
}

// IsConst reports whether v is a parameter or a constant: a leaf whose
// data comes from a recipe rather than from a node or a mini-batch.
func (v *Value) IsConst() bool { return v.c != nil }

// Recipe returns the recipe of a parameter or constant.
func (v *Value) Recipe() Recipe { return v.c.recipe }

// Data returns the data of a parameter or constant, made from its recipe
// on the first call. Concurrent first calls make it once, and every caller
// gets the same tensor. It is the initial value: sessions that train
// update their own copies (Graph.InitialParams), never this one.
func (v *Value) Data() *tensor.Tensor {
	c := v.c
	c.once.Do(func() { c.data.Store(c.recipe.New()) })
	return c.data.Load()
}

// Materialized reports whether v's data has been made, that is, whether
// anything has called Data on it.
func (v *Value) Materialized() bool { return v.c.data.Load() != nil }
