package models

import (
	"fmt"

	"astra/internal/graph"
	"astra/internal/tensor"
)

// lstmParams holds the per-gate weights of one standard LSTM layer, kept as
// separate tensors per gate — the naive model-code structure whose GEMMs
// Astra's enumerator later fuses.
type lstmParams struct {
	wx, wh [4]*graph.Value // input and recurrent weights per gate i,f,o,u
	bias   [4]*graph.Value
}

func newLSTMParams(g *graph.Graph, rng *tensor.RNG, name string, inDim, hid int) lstmParams {
	var p lstmParams
	gates := [4]string{"i", "f", "o", "u"}
	for k, gate := range gates {
		p.wx[k] = g.Param(fmt.Sprintf("%s.W%s", name, gate), graph.Gaussian(rng, 0.08, inDim, hid))
		p.wh[k] = g.Param(fmt.Sprintf("%s.U%s", name, gate), graph.Gaussian(rng, 0.08, hid, hid))
		p.bias[k] = g.Param(fmt.Sprintf("%s.b%s", name, gate), graph.Gaussian(rng, 0.08, 1, hid))
	}
	return p
}

// lstmCell emits one standard LSTM step: four gate pre-activations (two
// GEMMs + bias each), then the cell elementwise math.
func lstmCell(b *graph.Builder, p lstmParams, x, h, c *graph.Value) (hNext, cNext *graph.Value) {
	var pre [4]*graph.Value
	for k := 0; k < 4; k++ {
		gx := b.MatMul(x, p.wx[k])
		gh := b.MatMul(h, p.wh[k])
		pre[k] = b.AddBias(b.Add(gx, gh), p.bias[k])
	}
	i := b.Sigmoid(pre[0])
	f := b.Sigmoid(pre[1])
	o := b.Sigmoid(pre[2])
	u := b.Tanh(pre[3])
	cNext = b.Add(b.Mul(f, c), b.Mul(i, u))
	hNext = b.Mul(o, b.Tanh(cNext))
	return hNext, cNext
}

// StackedLSTM builds the PTB stacked LSTM language model ("large"
// configuration when built with DefaultConfig: 2 layers of 1500 units).
// This is the model fully covered by cuDNN's compound LSTM kernel, used in
// Table 5 to measure how close Astra gets to hand-optimized code.
func StackedLSTM(cfg Config) *Model {
	if cfg.Layers <= 0 {
		cfg.Layers = 2
	}
	m := &Model{Name: "stackedlstm", Cfg: cfg, G: graph.New()}
	b := graph.NewBuilder(m.G)
	rng := tensor.NewRNG(cfg.Seed + 101)

	xs := inputsFor(m, b, rng, "", cfg.SeqLen)
	layers := make([]lstmParams, cfg.Layers)
	for l := range layers {
		in := cfg.Embed
		if l > 0 {
			in = cfg.Hidden
		}
		layers[l] = newLSTMParams(m.G, rng, fmt.Sprintf("lstm%d", l), in, cfg.Hidden)
	}
	h := make([]*graph.Value, cfg.Layers)
	c := make([]*graph.Value, cfg.Layers)
	for l := range h {
		h[l] = zeroState(m.G, fmt.Sprintf("h0_%d", l), cfg.Batch, cfg.Hidden)
		c[l] = zeroState(m.G, fmt.Sprintf("c0_%d", l), cfg.Batch, cfg.Hidden)
	}

	var tops []*graph.Value
	for t := 0; t < cfg.SeqLen; t++ {
		x := xs[t]
		for l := 0; l < cfg.Layers; l++ {
			l := l
			b.InScope(fmt.Sprintf("lstm%d", l), func() {
				b.AtStep(t, func() {
					h[l], c[l] = lstmCell(b, layers[l], x, h[l], c[l])
				})
			})
			x = h[l]
		}
		tops = append(tops, x)
	}
	emitLMHead(m, b, rng, tops)
	return finish(m)
}

// MILSTM builds the multiplicative-integration LSTM of Wu et al. [36] used
// on the Hutter character-level task (Table 3). Each gate combines Wx and
// Uh multiplicatively as well as additively:
//
//	pre = α·(Wx ⊙ Uh) + β1·Wx + β2·Uh + bias
//
// Following the reference implementations, the four gates' weights are a
// single [in, 4·hidden] matrix, so the model code emits two wide GEMMs per
// step plus the multiplicative-integration elementwise math and per-gate
// slices — a structure cuDNN's standard LSTM kernel cannot run, but whose
// GEMM pair Astra can still ladder-fuse and cross-step batch.
func MILSTM(cfg Config) *Model {
	m := &Model{Name: "milstm", Cfg: cfg, G: graph.New()}
	b := graph.NewBuilder(m.G)
	rng := tensor.NewRNG(cfg.Seed + 202)

	xs := inputsFor(m, b, rng, "", cfg.SeqLen)
	wx := m.G.Param("milstm.Wx", graph.Gaussian(rng, 0.08, cfg.Embed, 4*cfg.Hidden))
	wh := m.G.Param("milstm.Uh", graph.Gaussian(rng, 0.08, cfg.Hidden, 4*cfg.Hidden))
	bias := m.G.Param("milstm.b", graph.Gaussian(rng, 0.08, 1, 4*cfg.Hidden))
	const alpha, beta1, beta2 = 1.0, 0.5, 0.5

	h := zeroState(m.G, "h0", cfg.Batch, cfg.Hidden)
	c := zeroState(m.G, "c0", cfg.Batch, cfg.Hidden)
	var tops []*graph.Value
	for t := 0; t < cfg.SeqLen; t++ {
		t := t
		b.InScope("milstm", func() {
			b.AtStep(t, func() {
				gx := b.MatMul(xs[t], wx)
				gh := b.MatMul(h, wh)
				mi := b.Scale(b.Mul(gx, gh), alpha)
				lin := b.Add(b.Scale(gx, beta1), b.Scale(gh, beta2))
				pre := b.AddBias(b.Add(mi, lin), bias)
				hd := cfg.Hidden
				i := b.Sigmoid(b.SliceCols(pre, 0, hd))
				f := b.Sigmoid(b.SliceCols(pre, hd, 2*hd))
				o := b.Sigmoid(b.SliceCols(pre, 2*hd, 3*hd))
				u := b.Tanh(b.SliceCols(pre, 3*hd, 4*hd))
				c = b.Add(b.Mul(f, c), b.Mul(i, u))
				h = b.Mul(o, b.Tanh(c))
			})
		})
		tops = append(tops, h)
	}
	emitLMHead(m, b, rng, tops)
	return finish(m)
}

// SubLSTM builds the subtractive-gating LSTM of Costa et al. [8]
// (Table 4): gates are all sigmoid, and gating is subtractive rather than
// multiplicative:
//
//	c_t = f ⊙ c_{t-1} + z − i
//	h_t = sigmoid(c_t) − o
func SubLSTM(cfg Config) *Model {
	m := &Model{Name: "sublstm", Cfg: cfg, G: graph.New()}
	b := graph.NewBuilder(m.G)
	rng := tensor.NewRNG(cfg.Seed + 303)

	xs := inputsFor(m, b, rng, "", cfg.SeqLen)
	p := newLSTMParams(m.G, rng, "sublstm", cfg.Embed, cfg.Hidden)

	h := zeroState(m.G, "h0", cfg.Batch, cfg.Hidden)
	c := zeroState(m.G, "c0", cfg.Batch, cfg.Hidden)
	var tops []*graph.Value
	for t := 0; t < cfg.SeqLen; t++ {
		t := t
		b.InScope("sublstm", func() {
			b.AtStep(t, func() {
				var gate [4]*graph.Value
				for k := 0; k < 4; k++ {
					gx := b.MatMul(xs[t], p.wx[k])
					gh := b.MatMul(h, p.wh[k])
					gate[k] = b.Sigmoid(b.AddBias(b.Add(gx, gh), p.bias[k]))
				}
				z, i, f, o := gate[3], gate[0], gate[1], gate[2]
				c = b.Add(b.Mul(f, c), b.Sub(z, i))
				h = b.Sub(b.Sigmoid(c), o)
			})
		})
		tops = append(tops, h)
	}
	emitLMHead(m, b, rng, tops)
	return finish(m)
}

// SCRNN builds the structurally-constrained recurrent network of Mikolov
// et al. [22] (Table 2): a slow context state s_t mixed by a fixed decay
// plus a fast sigmoid hidden state.
//
//	s_t = (1−α)·(x_t B) + α·s_{t−1}
//	h_t = sigmoid(P s_t + A x_t + R h_{t−1})
//	y   = U h + V s
func SCRNN(cfg Config) *Model {
	m := &Model{Name: "scrnn", Cfg: cfg, G: graph.New()}
	b := graph.NewBuilder(m.G)
	rng := tensor.NewRNG(cfg.Seed + 404)
	ctxDim := cfg.Hidden / 2
	if ctxDim == 0 {
		ctxDim = 1
	}
	const alpha = 0.95

	xs := inputsFor(m, b, rng, "", cfg.SeqLen)
	B := m.G.Param("scrnn.B", graph.Gaussian(rng, 0.08, cfg.Embed, ctxDim))
	A := m.G.Param("scrnn.A", graph.Gaussian(rng, 0.08, cfg.Embed, cfg.Hidden))
	P := m.G.Param("scrnn.P", graph.Gaussian(rng, 0.08, ctxDim, cfg.Hidden))
	R := m.G.Param("scrnn.R", graph.Gaussian(rng, 0.08, cfg.Hidden, cfg.Hidden))
	U := m.G.Param("scrnn.U", graph.Gaussian(rng, 0.08, cfg.Hidden, cfg.Vocab))
	V := m.G.Param("scrnn.V", graph.Gaussian(rng, 0.08, ctxDim, cfg.Vocab))

	s := zeroState(m.G, "s0", cfg.Batch, ctxDim)
	h := zeroState(m.G, "h0", cfg.Batch, cfg.Hidden)
	var hs, ss []*graph.Value
	for t := 0; t < cfg.SeqLen; t++ {
		t := t
		b.InScope("scrnn", func() {
			b.AtStep(t, func() {
				s = b.Add(b.Scale(b.MatMul(xs[t], B), 1-alpha), b.Scale(s, alpha))
				hPre := b.Add(b.Add(b.MatMul(s, P), b.MatMul(xs[t], A)), b.MatMul(h, R))
				h = b.Sigmoid(hPre)
			})
		})
		hs = append(hs, h)
		ss = append(ss, s)
	}
	var logits *graph.Value
	b.InScope("head", func() {
		hcat := b.ConcatRows(hs...)
		scat := b.ConcatRows(ss...)
		logits = b.Add(b.MatMul(hcat, U), b.MatMul(scat, V))
	})
	m.Targets = m.G.Input("targets", cfg.Batch*cfg.SeqLen, 1)
	b.CrossEntropy(logits, m.Targets)
	return finish(m)
}

// emitLMHead stacks the per-timestep top hidden states, projects to the
// vocabulary and attaches the cross-entropy loss against per-token targets.
func emitLMHead(m *Model, b *graph.Builder, rng *tensor.RNG, tops []*graph.Value) {
	cfg := m.Cfg
	U := m.G.Param("head.U", graph.Gaussian(rng, 0.08, cfg.Hidden, cfg.Vocab))
	var logits *graph.Value
	b.InScope("head", func() {
		cat := b.ConcatRows(tops...)
		logits = b.MatMul(cat, U)
	})
	m.Targets = m.G.Input("targets", cfg.Batch*len(tops), 1)
	b.CrossEntropy(logits, m.Targets)
}
