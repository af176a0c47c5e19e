package autodiff

import (
	"testing"
	"testing/quick"

	"astra/internal/graph"
	"astra/internal/tensor"
)

// numericGrad estimates dLoss/dParam by central differences on the forward
// graph, the ground truth against which the symbolic backward is checked.
func numericGrad(g *graph.Graph, inputs graph.Env, params graph.Env, p *graph.Value) *tensor.Tensor {
	const eps = 1e-6
	base := params[p]
	out := tensor.New(base.Shape()...)
	for i := range base.Data() {
		orig := base.Data()[i]
		base.Data()[i] = orig + eps
		up := g.Run(inputs, params)[g.Loss].Data()[0]
		base.Data()[i] = orig - eps
		down := g.Run(inputs, params)[g.Loss].Data()[0]
		base.Data()[i] = orig
		out.Data()[i] = (up - down) / (2 * eps)
	}
	return out
}

type testModel struct {
	g      *graph.Graph
	inputs graph.Env
	params graph.Env
}

// buildMLP builds a model exercising most gradient rules: lookup, matmul,
// bias, nonlinearities, mul/sub/scale, concat/slice, softmax and CE.
func buildMLP(seed uint64) *testModel {
	rng := tensor.NewRNG(seed)
	g := graph.New()
	b := graph.NewBuilder(g)
	const batch, vocab, emb, hid, classes = 3, 7, 4, 6, 5
	ids := g.Input("ids", batch, 1)
	targets := g.Input("targets", batch, 1)
	table := g.Param("emb", graph.Gaussian(rng, 0.5, vocab, emb))
	w1 := g.Param("w1", graph.Gaussian(rng, 0.5, emb, hid))
	w2 := g.Param("w2", graph.Gaussian(rng, 0.5, emb, hid))
	bias := g.Param("b1", graph.Gaussian(rng, 0.5, 1, hid))
	wo := g.Param("wo", graph.Gaussian(rng, 0.5, hid, classes))

	var logits *graph.Value
	b.InScope("mlp", func() {
		x := b.Lookup(table, ids)
		h1 := b.Tanh(b.AddBias(b.MatMul(x, w1), bias))
		h2 := b.Sigmoid(b.MatMul(x, w2))
		h := b.Mul(h1, h2)
		r := b.ReLU(b.Sub(h1, b.Scale(h2, 0.5)))
		h = b.Add(h, r)
		// exercise concat/slice/transpose/softmax paths
		cat := b.ConcatCols(h, h1)
		h = b.SliceCols(cat, 0, hid)
		h = b.Add(h, b.Transpose(b.Transpose(h2)))
		att := b.Softmax(h)
		h = b.Mul(h, att)
		logits = b.MatMul(h, wo)
	})
	b.CrossEntropy(logits, targets)

	inputs := graph.Env{}
	idT := tensor.New(batch, 1)
	tgT := tensor.New(batch, 1)
	for i := 0; i < batch; i++ {
		idT.Data()[i] = float64(rng.Intn(vocab))
		tgT.Data()[i] = float64(rng.Intn(classes))
	}
	inputs[ids] = idT
	inputs[targets] = tgT
	return &testModel{g: g, inputs: inputs, params: g.InitialParams()}
}

func TestBackwardMatchesNumericGradients(t *testing.T) {
	m := buildMLP(3)
	grads, err := Backward(m.g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.g.Validate(); err != nil {
		t.Fatal(err)
	}
	env := m.g.Run(m.inputs, m.params)
	for _, p := range m.g.Params {
		gv, ok := grads[p]
		if !ok {
			t.Fatalf("no gradient for %s", p.Name)
		}
		sym := env[gv]
		num := numericGrad(m.g, m.inputs, m.params, p)
		if d := tensor.MaxAbsDiff(sym, num); d > 1e-4 {
			t.Errorf("param %s: symbolic vs numeric gradient diff %g", p.Name, d)
		}
	}
}

func TestBackwardNumericProperty(t *testing.T) {
	f := func(seed uint64) bool {
		m := buildMLP(seed | 1)
		grads, err := Backward(m.g)
		if err != nil {
			return false
		}
		env := m.g.Run(m.inputs, m.params)
		for _, p := range m.g.Params {
			if tensor.MaxAbsDiff(env[grads[p]], numericGrad(m.g, m.inputs, m.params, p)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardMarksProvenance(t *testing.T) {
	m := buildMLP(5)
	before := len(m.g.Nodes)
	if _, err := Backward(m.g); err != nil {
		t.Fatal(err)
	}
	if len(m.g.Nodes) <= before {
		t.Fatal("no backward nodes appended")
	}
	for _, n := range m.g.Nodes[before:] {
		if n.Prov.Pass != graph.Backward {
			t.Fatalf("backward node %v has pass %v", n, n.Prov.Pass)
		}
	}
	for _, n := range m.g.Nodes[:before] {
		if n.Prov.Pass != graph.Forward {
			t.Fatalf("forward node %v has pass %v", n, n.Prov.Pass)
		}
	}
}

func TestBackwardFlopsDominance(t *testing.T) {
	// The paper: ~two-thirds of compute is the backward pass. Each forward
	// GEMM spawns two backward GEMMs, so backward flops ≥ forward flops.
	m := buildMLP(7)
	var fwd int64
	for _, n := range m.g.Nodes {
		fwd += n.Flops()
	}
	if _, err := Backward(m.g); err != nil {
		t.Fatal(err)
	}
	var bwd int64
	for _, n := range m.g.Nodes {
		if n.Prov.Pass == graph.Backward {
			bwd += n.Flops()
		}
	}
	if bwd < fwd {
		t.Fatalf("backward flops %d < forward flops %d", bwd, fwd)
	}
}

func TestBackwardCreatesFusionLadders(t *testing.T) {
	// A value consumed by two GEMMs must yield an mm+mm+add accumulation
	// ladder in the backward pass (§4.4.1).
	rng := tensor.NewRNG(9)
	g := graph.New()
	b := graph.NewBuilder(g)
	x := g.Input("x", 2, 4)
	targets := g.Input("targets", 2, 1)
	w1 := g.Param("w1", graph.Gaussian(rng, 0.5, 4, 4))
	w2 := g.Param("w2", graph.Gaussian(rng, 0.5, 4, 4))
	wo := g.Param("wo", graph.Gaussian(rng, 0.5, 4, 3))
	h := b.Add(b.MatMul(x, w1), b.MatMul(x, w2))
	b.CrossEntropy(b.MatMul(h, wo), targets)
	if _, err := Backward(g); err != nil {
		t.Fatal(err)
	}
	ladder := false
	for _, n := range g.Nodes {
		if n.Prov.Pass == graph.Backward && n.Op == graph.OpAdd {
			p0, p1 := n.Inputs[0].Producer, n.Inputs[1].Producer
			if p0 != nil && p1 != nil && p0.Op == graph.OpMatMul && p1.Op == graph.OpMatMul {
				ladder = true
			}
		}
	}
	if !ladder {
		t.Fatal("no mm+mm+add accumulation ladder in backward pass")
	}
}

func TestBackwardErrors(t *testing.T) {
	g := graph.New()
	if _, err := Backward(g); err == nil {
		t.Fatal("accepted graph without loss")
	}
	b := graph.NewBuilder(g)
	x := g.Input("x", 1, 2)
	y := b.Tanh(x)
	g.Loss = y
	if _, err := Backward(g); err == nil {
		t.Fatal("accepted non-cross-entropy loss")
	}
}

func TestBackwardSkipsDeadBranches(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := graph.New()
	b := graph.NewBuilder(g)
	x := g.Input("x", 2, 3)
	targets := g.Input("targets", 2, 1)
	w := g.Param("w", graph.Gaussian(rng, 0.5, 3, 4))
	dead := g.Param("dead", graph.Gaussian(rng, 0.5, 3, 4))
	b.MatMul(x, dead) // unused result
	b.CrossEntropy(b.MatMul(x, w), targets)
	grads, err := Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grads[dead]; ok {
		t.Fatal("dead parameter received a gradient")
	}
	if _, ok := grads[w]; !ok {
		t.Fatal("live parameter missing gradient")
	}
}

func TestSGDStepReducesLoss(t *testing.T) {
	m := buildMLP(11)
	grads, err := Backward(m.g)
	if err != nil {
		t.Fatal(err)
	}
	loss0 := m.g.Run(m.inputs, m.params)[m.g.Loss].Data()[0]
	for step := 0; step < 20; step++ {
		env := m.g.Run(m.inputs, m.params)
		ApplySGD(m.g, env, m.params, 0.1)
		_ = grads
	}
	loss1 := m.g.Run(m.inputs, m.params)[m.g.Loss].Data()[0]
	if loss1 >= loss0 {
		t.Fatalf("SGD did not reduce loss: %v -> %v", loss0, loss1)
	}
}

func TestAttentionOpsGradients(t *testing.T) {
	// scale_cols / row_sums / broadcast_cols — the attention primitives —
	// checked against numeric gradients.
	rng := tensor.NewRNG(17)
	g := graph.New()
	b := graph.NewBuilder(g)
	x := g.Input("x", 3, 4)
	targets := g.Input("targets", 3, 1)
	ws := g.Param("ws", graph.Gaussian(rng, 0.5, 4, 1))
	wo := g.Param("wo", graph.Gaussian(rng, 0.5, 4, 3))
	s := b.MatMul(x, ws)                 // [3,1] per-row score
	weighted := b.ScaleCols(x, s)        // attention-style weighting
	pooled := b.RowSums(weighted)        // [3,1]
	spread := b.BroadcastCols(pooled, 4) // [3,4]
	h := b.Add(weighted, spread)
	b.CrossEntropy(b.MatMul(h, wo), targets)
	grads, err := Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	inputs := graph.Env{
		x:       tensor.Randn(rng, 1, 3, 4),
		targets: tensor.FromSlice([]float64{0, 2, 1}, 3, 1),
	}
	params := g.InitialParams()
	env := g.Run(inputs, params)
	for _, p := range g.Params {
		num := numericGrad(g, inputs, params, p)
		if d := tensor.MaxAbsDiff(env[grads[p]], num); d > 1e-4 {
			t.Errorf("param %s: gradient diff %g", p.Name, d)
		}
	}
}
