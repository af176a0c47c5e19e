package models

import (
	"fmt"

	"astra/internal/graph"
	"astra/internal/tensor"
)

// GNMT builds a Google-NMT-style sequence-to-sequence model (Table 6): a
// multi-layer LSTM encoder, a multi-layer LSTM decoder, and a global
// attention module between them. The LSTM stacks are the part cuDNN's
// compound kernels cover; the attention — per-step softmax over encoder
// states, column-scaling and accumulation — is exactly the long tail cuDNN
// does not cover, which is why Astra closes the gap on this model.
//
// cfg.Layers is the per-direction depth (encoder and decoder each get
// cfg.Layers LSTM layers), so the model has roughly Layers× the layer count
// of the two-layer stacked LSTM — the property Table 7 uses to argue the
// exploration state space scales.
func GNMT(cfg Config) *Model {
	if cfg.Layers <= 0 {
		cfg.Layers = 4
	}
	m := &Model{Name: "gnmt", Cfg: cfg, G: graph.New()}
	b := graph.NewBuilder(m.G)
	rng := tensor.NewRNG(cfg.Seed + 505)
	T := cfg.SeqLen

	// ---- encoder ----
	encX := inputsFor(m, b, rng, "enc.", T)
	encLayers := make([]lstmParams, cfg.Layers)
	for l := range encLayers {
		in := cfg.Embed
		if l > 0 {
			in = cfg.Hidden
		}
		encLayers[l] = newLSTMParams(m.G, rng, fmt.Sprintf("enc%d", l), in, cfg.Hidden)
	}
	encH := make([]*graph.Value, cfg.Layers)
	encC := make([]*graph.Value, cfg.Layers)
	for l := range encH {
		encH[l] = zeroState(m.G, fmt.Sprintf("ench0_%d", l), cfg.Batch, cfg.Hidden)
		encC[l] = zeroState(m.G, fmt.Sprintf("encc0_%d", l), cfg.Batch, cfg.Hidden)
	}
	encTop := make([]*graph.Value, T) // encoder memory the attention reads
	for t := 0; t < T; t++ {
		x := encX[t]
		for l := 0; l < cfg.Layers; l++ {
			l := l
			b.InScope(fmt.Sprintf("enc.lstm%d", l), func() {
				b.AtStep(t, func() {
					encH[l], encC[l] = lstmCell(b, encLayers[l], x, encH[l], encC[l])
				})
			})
			x = encH[l]
		}
		encTop[t] = x
	}

	// ---- decoder with global attention ----
	decX := inputsFor(m, b, rng, "dec.", T)
	decLayers := make([]lstmParams, cfg.Layers)
	for l := range decLayers {
		in := cfg.Embed
		if l > 0 {
			in = cfg.Hidden
		}
		decLayers[l] = newLSTMParams(m.G, rng, fmt.Sprintf("dec%d", l), in, cfg.Hidden)
	}
	decH := make([]*graph.Value, cfg.Layers)
	decC := make([]*graph.Value, cfg.Layers)
	for l := range decH {
		decH[l] = zeroState(m.G, fmt.Sprintf("dech0_%d", l), cfg.Batch, cfg.Hidden)
		decC[l] = zeroState(m.G, fmt.Sprintf("decc0_%d", l), cfg.Batch, cfg.Hidden)
	}
	Watt := m.G.Param("att.W", graph.Gaussian(rng, 0.08, cfg.Hidden, T))
	Wc := m.G.Param("att.Wc", graph.Gaussian(rng, 0.08, 2*cfg.Hidden, cfg.Hidden))

	var outs []*graph.Value
	for t := 0; t < T; t++ {
		x := decX[t]
		for l := 0; l < cfg.Layers; l++ {
			l := l
			b.InScope(fmt.Sprintf("dec.lstm%d", l), func() {
				b.AtStep(t, func() {
					decH[l], decC[l] = lstmCell(b, decLayers[l], x, decH[l], decC[l])
				})
			})
			x = decH[l]
		}
		// Global attention over the encoder memory: scores from the top
		// decoder state, softmax over encoder positions, weighted sum of
		// encoder states, then a combining projection — a chain of small
		// kernels that no compound hand-written kernel covers.
		top := x
		t := t
		b.InScope("att", func() {
			b.AtStep(t, func() {
				scores := b.Softmax(b.MatMul(top, Watt)) // [batch, T]
				var ctx *graph.Value
				for s := 0; s < T; s++ {
					w := b.SliceCols(scores, s, s+1)
					term := b.ScaleCols(encTop[s], w)
					if ctx == nil {
						ctx = term
					} else {
						ctx = b.Add(ctx, term)
					}
				}
				combined := b.Tanh(b.MatMul(b.ConcatCols(top, ctx), Wc))
				outs = append(outs, combined)
			})
		})
	}
	emitLMHead(m, b, rng, outs)
	return finish(m)
}
