// Package baselines implements the comparison dispatchers of the paper's
// evaluation: the native eager frameworks (PyTorch-like and
// TensorFlow-like), the XLA static optimizer, and the cuDNN hand-optimized
// compound kernels. All run on the same simulated device and the same
// value semantics as Astra, so every reported speedup is apples-to-apples.
package baselines

import (
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/graph"
	"astra/internal/kernels"
	"astra/internal/models"
	"astra/internal/wire"
)

// Result reports one dispatched mini-batch.
type Result struct {
	TimeUs  float64
	Kernels int
	Env     graph.Env
}

// Framework profiles the host-side dispatch cost of an eager framework.
type Framework struct {
	Name string
	// PerOpCPUUs is the interpreter + dispatcher cost per operator, on top
	// of the driver's kernel-launch overhead. Eager PyTorch pays Python
	// dispatch per op; graph-mode TensorFlow is cheaper per op.
	PerOpCPUUs float64
}

// PyTorch returns the eager PyTorch 0.4 profile used in Tables 2–6.
func PyTorch() Framework { return Framework{Name: "pytorch", PerOpCPUUs: 14} }

// TensorFlow returns the TF 1.8 graph-executor profile used in Table 9.
func TensorFlow() Framework { return Framework{Name: "tensorflow", PerOpCPUUs: 6} }

// RunNative dispatches the graph the way the stock framework does: one
// kernel per operator, default library, single stream, no fusion. View
// transposes (consumed only by GEMMs) are free, as in the real frameworks.
func RunNative(g *graph.Graph, dev *gpusim.Device, fw Framework, inputs, params graph.Env) Result {
	dev.Reset()
	views := enumerate.Views(g)
	var env graph.Env
	if inputs != nil {
		env = make(graph.Env, len(g.Values))
		for _, v := range g.Inputs {
			env[v] = inputs[v]
		}
		for _, v := range g.Values {
			if v.ConstData == nil {
				continue
			}
			if params != nil {
				if t, ok := params[v]; ok {
					env[v] = t
					continue
				}
			}
			env[v] = v.ConstData
		}
	}
	res := Result{}
	for _, n := range g.Nodes {
		if env != nil {
			graph.EvalNode(n, env)
		}
		if views[n] {
			continue
		}
		dev.AdvanceCPU(fw.PerOpCPUUs)
		dev.Launch(0, kernels.ForNode(n, kernels.CuBLAS))
		res.Kernels++
	}
	dev.Synchronize()
	res.TimeUs = dev.CPUTimeUs()
	res.Env = env
	return res
}

// RunXLA dispatches the graph through a static whole-graph optimizer in the
// mold of TensorFlow XLA (§6.6): maximal elementwise and GEMM fusion picked
// once at compile time with no measurement, a single stream, the default
// GEMM library — and the embedding pathology, where every lookup bounces
// through the host. The static maximal-fusion policy is exactly what makes
// XLA fragile: it fuses past the diminishing-return point and cannot
// un-fuse where measurement would have said otherwise.
func RunXLA(g *graph.Graph, dev *gpusim.Device, inputs, params graph.Env) Result {
	plan := enumerate.Enumerate(g, enumerate.Options{})
	runner := wire.NewRunner(plan, dev, wire.RunnerConfig{
		PerOpCPUUs:            3, // compiled executor: minimal host cost
		MaxFusion:             true,
		EmbeddingHostTransfer: true,
	})
	br := runner.RunBatch(inputs, params)
	return Result{TimeUs: br.TotalUs, Kernels: br.Kernels, Env: br.Env}
}

// coveredScopes returns the provenance scopes replaced by compound kernels.
func coveredScopes(m *models.Model) map[string]bool {
	out := map[string]bool{}
	for _, n := range m.G.Nodes {
		if isStandardLSTMScope(n.Prov.Scope) {
			out[n.Prov.Scope] = true
		}
	}
	return out
}

// isStandardLSTMScope matches "lstm<digits>" as the final scope segment —
// the naming the model zoo gives standard LSTM layers. "milstm" and
// "sublstm" deliberately do not match: cuDNN has no kernel for them.
func isStandardLSTMScope(scope string) bool {
	i := len(scope)
	for i > 0 && scope[i-1] >= '0' && scope[i-1] <= '9' {
		i--
	}
	if i == len(scope) { // no trailing digits
		return false
	}
	prefix := scope[:i]
	const tag = "lstm"
	if len(prefix) < len(tag) || prefix[len(prefix)-len(tag):] != tag {
		return false
	}
	// The segment must be exactly "lstm<digits>": either the whole scope
	// or preceded by a dot.
	head := prefix[:len(prefix)-len(tag)]
	return head == "" || head[len(head)-1] == '.'
}

// lstmLayer describes one covered layer recovered from the graph.
type lstmLayer struct {
	scope     string
	inDim     int
	hidden    int
	timesteps int
}

// RunCuDNN dispatches the model with cuDNN-style compound kernels for every
// covered LSTM layer and the eager framework for everything else (the
// paper's "PyTorch+cuDNN" configuration). ok is false when the model has no
// covered layers.
//
// The compound schedule per layer follows cuDNN's actual structure
// (Appleyard et al. [4]): the input GEMMs of all timesteps are batched into
// one large GEMM per layer; each timestep then needs only one fused
// recurrent GEMM (all four gates) plus one fused pointwise kernel; the
// backward pass mirrors this with one data-gradient GEMM and pointwise per
// step plus two batched weight-gradient GEMMs per layer.
func RunCuDNN(m *models.Model, dev *gpusim.Device, fw Framework, inputs, params graph.Env) (Result, bool) {
	covered := coveredScopes(m)
	if len(covered) == 0 {
		return Result{}, false
	}
	dev.Reset()
	views := enumerate.Views(m.G)

	layers := map[string]*lstmLayer{}
	for _, n := range m.G.Nodes {
		if !covered[n.Prov.Scope] || n.Op != graph.OpMatMul || n.Prov.Pass != graph.Forward {
			continue
		}
		l := layers[n.Prov.Scope]
		if l == nil {
			l = &lstmLayer{scope: n.Prov.Scope, hidden: m.Cfg.Hidden}
			layers[n.Prov.Scope] = l
		}
		if n.Prov.Timestep+1 > l.timesteps {
			l.timesteps = n.Prov.Timestep + 1
		}
		// The x-side GEMM reveals the layer input width.
		if k := n.Inputs[0].Shape.Cols(); k != m.Cfg.Hidden && k > l.inDim {
			l.inDim = k
		}
	}
	for _, l := range layers {
		if l.inDim == 0 {
			l.inDim = m.Cfg.Hidden
		}
	}

	res := Result{}
	b := m.Cfg.Batch
	launch := func(spec gpusim.KernelSpec) {
		dev.AdvanceCPU(1) // compound kernels amortize framework dispatch
		dev.Launch(0, spec)
		res.Kernels++
	}
	// cuDNN ships its own GEMM kernels, roughly cuBLAS-quality; the win
	// comes from its schedule (batching and fusion), not magic kernels.
	bestGEMM := func(s kernels.GEMMShape) gpusim.KernelSpec {
		return kernels.GEMM(kernels.CuBLAS, s)
	}
	dispatchLayer := func(l *lstmLayer) {
		// Forward: batched input GEMM, then per-step recurrent GEMM +
		// fused cell pointwise.
		launch(bestGEMM(kernels.GEMMShape{M: l.timesteps * b, K: l.inDim, N: 4 * l.hidden}))
		for t := 0; t < l.timesteps; t++ {
			launch(bestGEMM(kernels.GEMMShape{M: b, K: l.hidden, N: 4 * l.hidden}))
			launch(kernels.FusedElementwise(10, b*l.hidden))
		}
		// Backward: per-step data-gradient GEMM + pointwise, then two
		// batched weight-gradient GEMMs.
		for t := 0; t < l.timesteps; t++ {
			launch(bestGEMM(kernels.GEMMShape{M: b, K: 4 * l.hidden, N: l.inDim + l.hidden}))
			launch(kernels.FusedElementwise(10, b*l.hidden))
		}
		launch(bestGEMM(kernels.GEMMShape{M: l.inDim, K: l.timesteps * b, N: 4 * l.hidden}))
		launch(bestGEMM(kernels.GEMMShape{M: l.hidden, K: l.timesteps * b, N: 4 * l.hidden}))
	}

	// Walk the graph in order: uncovered nodes dispatch natively; each
	// covered layer's compound schedule is dispatched when its first node
	// is reached.
	dispatched := map[string]bool{}
	for _, n := range m.G.Nodes {
		if covered[n.Prov.Scope] {
			if n.Prov.Pass == graph.Forward && !dispatched[n.Prov.Scope] {
				dispatched[n.Prov.Scope] = true
				dispatchLayer(layers[n.Prov.Scope])
			}
			continue
		}
		if views[n] {
			continue
		}
		dev.AdvanceCPU(fw.PerOpCPUUs)
		dev.Launch(0, kernels.ForNode(n, kernels.CuBLAS))
		res.Kernels++
	}
	dev.Synchronize()
	res.TimeUs = dev.CPUTimeUs()

	// Values: the compound kernels are bit-compatible with the graph's own
	// math, so the oracle just runs the graph.
	if inputs != nil {
		res.Env = m.G.Run(inputs, params)
	}
	return res, true
}
