package models

import (
	"math"
	"strings"
	"testing"

	"astra/internal/graph"
	"astra/internal/tensor"
)

// eagerSeeds is each zoo builder's generator seed offset: a builder draws
// every parameter from tensor.NewRNG(cfg.Seed + offset).
var eagerSeeds = map[string]uint64{
	"stackedlstm": 101, "milstm": 202, "sublstm": 303, "scrnn": 404,
	"gnmt": 505, "rhn": 606, "attlstm": 707,
}

// eagerFill is the initialisation the builders made at build time before
// data became lazy: one generator per model, every parameter filled with
// tensor.Randn in declaration order (scale 0.1 for embedding tables, 0.08
// for the rest), every other constant zero.
func eagerFill(t *testing.T, m *Model) map[*graph.Value]*tensor.Tensor {
	t.Helper()
	off, ok := eagerSeeds[m.Name]
	if !ok {
		t.Fatalf("%s: no seed offset: add the builder's to eagerSeeds", m.Name)
	}
	rng := tensor.NewRNG(m.Cfg.Seed + off)
	params := map[*graph.Value]bool{}
	for _, p := range m.G.Params {
		params[p] = true
	}
	out := map[*graph.Value]*tensor.Tensor{}
	for _, v := range m.G.Values {
		switch {
		case !v.IsConst():
		case !params[v]:
			out[v] = tensor.New(v.Shape...)
		case strings.HasSuffix(v.Name, "emb"):
			out[v] = tensor.Randn(rng, 0.1, v.Shape...)
		default:
			out[v] = tensor.Randn(rng, 0.08, v.Shape...)
		}
	}
	return out
}

// sameBits reports whether two tensors have one shape and bit-identical
// elements.
func sameBits(a, b *tensor.Tensor) bool {
	if !a.Shape().Equal(b.Shape()) {
		return false
	}
	bd := b.Data()
	for i, x := range a.Data() {
		if math.Float64bits(x) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestLazyDataMatchesEagerFill builds every zoo model at tiny scale, and
// scrnn at default scale, and checks that no build makes any data and
// that every parameter and constant, once read, holds exactly the bits
// the eager sequential fill gave it — through Value.Data and through
// Graph.InitialParams alike.
func TestLazyDataMatchesEagerFill(t *testing.T) {
	cases := []Config{}
	names := Names()
	for _, name := range names {
		cases = append(cases, TinyConfig(name, 2))
	}
	if !testing.Short() {
		names = append(names, "scrnn")
		cases = append(cases, DefaultConfig("scrnn", 16))
	}
	for i, cfg := range cases {
		build, _ := Get(names[i])
		m := build(cfg)
		for _, v := range m.G.Values {
			if v.IsConst() && v.Materialized() {
				t.Fatalf("%s: building made the data of %s (%s)", m.Name, v, v.Name)
			}
		}
		want := eagerFill(t, m)
		fresh := m.G.InitialParams()
		for _, p := range m.G.Params {
			if !sameBits(fresh[p], want[p]) {
				t.Fatalf("%s: InitialParams of %s (%s) differs from the eager fill", m.Name, p, p.Name)
			}
			if p.Materialized() {
				t.Fatalf("%s: InitialParams made the graph's own copy of %s", m.Name, p.Name)
			}
		}
		for v, w := range want {
			if !sameBits(v.Data(), w) {
				t.Fatalf("%s: data of %s (%s) differs from the eager fill", m.Name, v, v.Name)
			}
		}
	}
}
