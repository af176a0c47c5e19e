package models

import (
	"fmt"

	"astra/internal/graph"
	"astra/internal/tensor"
)

func init() {
	registry["rhn"] = RHN
	registry["attlstm"] = AttLSTM
}

// RHN builds a Recurrent Highway Network (Zilly et al. [39]) — one of the
// long-tail cells the paper's introduction lists as exactly the kind of
// novel architecture cuDNN will never cover. Each timestep pushes the
// state through Depth highway micro-layers:
//
//	h' = t ⊙ g + (1 − t) ⊙ h
//	t  = sigmoid(x W_t [first layer only] + h R_t + b_t)
//	g  = tanh   (x W_g [first layer only] + h R_g + b_g)
func RHN(cfg Config) *Model {
	depth := cfg.Layers
	if depth <= 0 {
		depth = 3
	}
	m := &Model{Name: "rhn", Cfg: cfg, G: graph.New()}
	b := graph.NewBuilder(m.G)
	rng := tensor.NewRNG(cfg.Seed + 606)

	xs := inputsFor(m, b, rng, "", cfg.SeqLen)
	wt := m.G.Param("rhn.Wt", graph.Gaussian(rng, 0.08, cfg.Embed, cfg.Hidden))
	wg := m.G.Param("rhn.Wg", graph.Gaussian(rng, 0.08, cfg.Embed, cfg.Hidden))
	rt := make([]*graph.Value, depth)
	rg := make([]*graph.Value, depth)
	bt := make([]*graph.Value, depth)
	bg := make([]*graph.Value, depth)
	for l := 0; l < depth; l++ {
		rt[l] = m.G.Param(fmt.Sprintf("rhn.Rt%d", l), graph.Gaussian(rng, 0.08, cfg.Hidden, cfg.Hidden))
		rg[l] = m.G.Param(fmt.Sprintf("rhn.Rg%d", l), graph.Gaussian(rng, 0.08, cfg.Hidden, cfg.Hidden))
		bt[l] = m.G.Param(fmt.Sprintf("rhn.bt%d", l), graph.Gaussian(rng, 0.08, 1, cfg.Hidden))
		bg[l] = m.G.Param(fmt.Sprintf("rhn.bg%d", l), graph.Gaussian(rng, 0.08, 1, cfg.Hidden))
	}

	h := zeroState(m.G, "h0", cfg.Batch, cfg.Hidden)
	var tops []*graph.Value
	for t := 0; t < cfg.SeqLen; t++ {
		t := t
		for l := 0; l < depth; l++ {
			l := l
			b.InScope(fmt.Sprintf("rhn.hw%d", l), func() {
				b.AtStep(t, func() {
					tPre := b.MatMul(h, rt[l])
					gPre := b.MatMul(h, rg[l])
					if l == 0 {
						tPre = b.Add(tPre, b.MatMul(xs[t], wt))
						gPre = b.Add(gPre, b.MatMul(xs[t], wg))
					}
					tGate := b.Sigmoid(b.AddBias(tPre, bt[l]))
					g := b.Tanh(b.AddBias(gPre, bg[l]))
					// h' = t⊙g + (1−t)⊙h, spelled naively: t⊙g + h − t⊙h.
					h = b.Add(b.Mul(tGate, g), b.Sub(h, b.Mul(tGate, h)))
				})
			})
		}
		tops = append(tops, h)
	}
	emitLMHead(m, b, rng, tops)
	return finish(m)
}

// AttLSTM builds an LSTM with an attention module over its own previous
// hidden states (Wu et al. [35]'s attention applied to a language model) —
// another intro-listed long-tail structure: the LSTM body alone would be
// cuDNN-coverable, but the per-step attention chain is not, so the fused
// library kernel cannot be used for the whole model.
func AttLSTM(cfg Config) *Model {
	const window = 8 // attention looks back over the last `window` states
	m := &Model{Name: "attlstm", Cfg: cfg, G: graph.New()}
	b := graph.NewBuilder(m.G)
	rng := tensor.NewRNG(cfg.Seed + 707)

	xs := inputsFor(m, b, rng, "", cfg.SeqLen)
	p := newLSTMParams(m.G, rng, "attcell", cfg.Embed, cfg.Hidden)
	watt := m.G.Param("att.W", graph.Gaussian(rng, 0.08, cfg.Hidden, window))
	wc := m.G.Param("att.Wc", graph.Gaussian(rng, 0.08, 2*cfg.Hidden, cfg.Hidden))

	h := zeroState(m.G, "h0", cfg.Batch, cfg.Hidden)
	c := zeroState(m.G, "c0", cfg.Batch, cfg.Hidden)
	var history []*graph.Value
	var tops []*graph.Value
	for t := 0; t < cfg.SeqLen; t++ {
		t := t
		b.InScope("attcell", func() {
			b.AtStep(t, func() {
				h, c = lstmCell(b, p, xs[t], h, c)
			})
		})
		history = append(history, h)
		out := h
		if t >= 1 {
			lo := len(history) - 1 - window
			if lo < 0 {
				lo = 0
			}
			past := history[lo : len(history)-1]
			b.InScope("att", func() {
				b.AtStep(t, func() {
					scores := b.Softmax(b.SliceCols(b.MatMul(h, watt), 0, len(past)))
					var ctx *graph.Value
					for i, ph := range past {
						w := b.SliceCols(scores, i, i+1)
						term := b.ScaleCols(ph, w)
						if ctx == nil {
							ctx = term
						} else {
							ctx = b.Add(ctx, term)
						}
					}
					out = b.Tanh(b.MatMul(b.ConcatCols(h, ctx), wc))
				})
			})
		}
		tops = append(tops, out)
	}
	emitLMHead(m, b, rng, tops)
	return finish(m)
}
