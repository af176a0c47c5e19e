package graph

import (
	"strings"
	"testing"

	"astra/internal/tensor"
)

// buildTinyModel constructs a small two-GEMM model with a loss, the shape of
// the examples in the paper's §4.4.1 (two mm sharing a common argument).
func buildTinyModel() (*Graph, *Builder) {
	g := New()
	b := NewBuilder(g)
	rng := tensor.NewRNG(1)
	x := g.Input("x", 4, 8)
	targets := g.Input("targets", 4, 1)
	w1 := g.Param("w1", Gaussian(rng, 0.1, 8, 16))
	w2 := g.Param("w2", Gaussian(rng, 0.1, 8, 16))
	bias := g.Param("b", Gaussian(rng, 0.1, 1, 16))
	var logits *Value
	b.InScope("layer0", func() {
		h1 := b.MatMul(x, w1)
		h2 := b.MatMul(x, w2)
		h := b.Add(h1, h2)
		h = b.AddBias(h, bias)
		h = b.Tanh(h)
		w3 := g.Param("w3", Gaussian(rng, 0.1, 16, 5))
		logits = b.MatMul(h, w3)
	})
	b.CrossEntropy(logits, targets)
	return g, b
}

func tinyInputs(g *Graph) Env {
	rng := tensor.NewRNG(2)
	env := Env{}
	for _, in := range g.Inputs {
		switch in.Name {
		case "x":
			env[in] = tensor.Randn(rng, 1, in.Shape...)
		case "targets":
			t := tensor.New(in.Shape...)
			for i := range t.Data() {
				t.Data()[i] = float64(i % 5)
			}
			env[in] = t
		}
	}
	return env
}

func TestBuildAndValidate(t *testing.T) {
	g, _ := buildTinyModel()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Loss == nil {
		t.Fatal("loss not set")
	}
	st := g.Stats()
	if st.MatMuls != 3 {
		t.Fatalf("MatMuls = %d, want 3", st.MatMuls)
	}
	if st.Nodes != 7 {
		t.Fatalf("Nodes = %d, want 7", st.Nodes)
	}
	if len(g.Params) != 4 {
		t.Fatalf("Params = %d", len(g.Params))
	}
}

func TestProvenanceScopes(t *testing.T) {
	g, _ := buildTinyModel()
	for _, n := range g.Nodes {
		if n.Op == OpMatMul && n.Prov.Scope != "layer0" {
			t.Fatalf("mm scope = %q", n.Prov.Scope)
		}
	}
	if got := g.ScopeList(); len(got) != 2 { // "" (loss) and "layer0"
		t.Fatalf("ScopeList = %v", got)
	}
}

func TestNestedScopesAndSteps(t *testing.T) {
	g := New()
	b := NewBuilder(g)
	x := g.Input("x", 2, 2)
	var inner Provenance
	b.InScope("enc", func() {
		b.InScope("lstm1", func() {
			b.AtStep(7, func() {
				b.Add(x, x)
				inner = b.Prov()
			})
		})
	})
	if inner.Scope != "enc.lstm1" || inner.Timestep != 7 {
		t.Fatalf("prov = %+v", inner)
	}
	if b.Prov().Scope != "" || b.Prov().Timestep != -1 {
		t.Fatalf("provenance not restored: %+v", b.Prov())
	}
}

func TestRunComputesLoss(t *testing.T) {
	g, _ := buildTinyModel()
	env := g.Run(tinyInputs(g), nil)
	loss := env[g.Loss].Data()[0]
	if loss <= 0 || loss > 10 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestRunDeterministic(t *testing.T) {
	g, _ := buildTinyModel()
	in := tinyInputs(g)
	a := g.Run(in, nil)
	b := g.Run(in, nil)
	if tensor.MaxAbsDiff(a[g.Loss], b[g.Loss]) != 0 {
		t.Fatal("Run is nondeterministic")
	}
}

func TestRunWithUpdatedParams(t *testing.T) {
	g, _ := buildTinyModel()
	in := tinyInputs(g)
	base := g.Run(in, nil)[g.Loss].Data()[0]
	params := g.InitialParams()
	for _, p := range g.Params {
		if p.Name == "w3" {
			params[p] = tensor.New(p.Shape...).Fill(0.5)
		}
	}
	changed := g.Run(in, params)[g.Loss].Data()[0]
	if base == changed {
		t.Fatal("updated params had no effect")
	}
}

func TestFlopsMatMul(t *testing.T) {
	g, _ := buildTinyModel()
	for _, n := range g.MatMulNodes() {
		m := int64(n.Inputs[0].Shape.Rows())
		k := int64(n.Inputs[0].Shape.Cols())
		nn := int64(n.Inputs[1].Shape.Cols())
		if n.Flops() != 2*m*k*nn {
			t.Fatalf("Flops = %d", n.Flops())
		}
	}
	if g.TotalFlops() <= 0 {
		t.Fatal("TotalFlops <= 0")
	}
}

func TestConsumersAndNodeByOutput(t *testing.T) {
	g, _ := buildTinyModel()
	cons := g.Consumers()
	x := g.Inputs[0]
	if len(cons[x]) != 2 {
		t.Fatalf("x consumers = %d, want 2 (two GEMMs)", len(cons[x]))
	}
	byOut := g.NodeByOutput()
	for _, n := range g.Nodes {
		if byOut[n.Out] != n {
			t.Fatal("NodeByOutput mismatch")
		}
	}
}

func TestValidateCatchesUseBeforeDef(t *testing.T) {
	g := New()
	v := g.NewValue(tensor.Shape{2, 2}, "floating")
	n := &Node{Op: OpTanh, Inputs: []*Value{v}, Out: g.NewValue(tensor.Shape{2, 2}, "")}
	g.Nodes = append(g.Nodes, n)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted use-before-def")
	}
}

func TestValidateCatchesShapeLie(t *testing.T) {
	g := New()
	b := NewBuilder(g)
	x := g.Input("x", 2, 3)
	y := b.Tanh(x)
	y.Shape = tensor.Shape{9, 9}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted shape")
	}
}

func TestShapeInferencePanicsOnMisuse(t *testing.T) {
	g := New()
	b := NewBuilder(g)
	x := g.Input("x", 2, 3)
	y := g.Input("y", 4, 5)
	cases := []func(){
		func() { b.MatMul(x, y) },
		func() { b.Add(x, y) },
		func() { b.AddBias(x, y) },
		func() { b.SliceCols(x, 2, 9) },
		func() { b.ConcatCols(x, y) },
		func() { b.ConcatRows(x, y) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestOpStringRoundTrip: every op prints its own mnemonic, so a trace line
// names exactly one operator.
func TestOpStringRoundTrip(t *testing.T) {
	seen := map[string]Op{}
	for op := OpInput; op < opCount; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			t.Fatalf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("ops %d and %d share the mnemonic %q", prev, op, name)
		}
		seen[name] = op
	}
}

// TestTracePinned pins the printer's text for a hand-built graph that uses
// every attribute form, a constant, a quoted scope, the loss and a gradient.
func TestTracePinned(t *testing.T) {
	g := New()
	b := NewBuilder(g)
	x := g.Input("x", 2, 6)
	ids := g.Input("token ids", 3, 1)
	table := g.Param("emb", Zeros(10, 4))
	bias := g.Const("bias", Zeros(1, 6))
	b.Scale(x, 2.5)
	b.InScope(`dec "attn" 0`, func() {
		b.AtStep(1, func() {
			b.SliceCols(x, 1, 4)
			b.SliceRows(x, 0, 1)
			b.BroadcastCols(b.SliceCols(x, 0, 1), 3)
		})
	})
	g.AddNode(OpBroadcastRows, b.Prov(), Attr{N: 2}, bias)
	g.AddNode(OpPadCols, b.Prov(), Attr{Lo: 2, N: 9}, x)
	g.AddNode(OpPadRows, b.Prov(), Attr{Lo: 1, N: 4}, x)
	e := b.Lookup(table, ids)
	g.Loss = b.RowSums(e)
	g.Grads[table] = g.AddNode(OpLookupGrad, Provenance{Pass: Backward, Timestep: -1}, Attr{N: 10}, ids, e)
	const want = `# astra trace v1
input %0 "x" shape=[2x6]
input %1 "token ids" shape=[3x1]
param %2 "emb" shape=[10x4]
const %3 "bias" shape=[1x6]
%4 = scale(%0) {s=2.5} # pass=fwd scope="" t=-1 shape=[2x6]
%5 = slice_cols(%0) {lo=1 hi=4} # pass=fwd scope="dec \"attn\" 0" t=1 shape=[2x3]
%6 = slice_rows(%0) {lo=0 hi=1} # pass=fwd scope="dec \"attn\" 0" t=1 shape=[1x6]
%7 = slice_cols(%0) {lo=0 hi=1} # pass=fwd scope="dec \"attn\" 0" t=1 shape=[2x1]
%8 = broadcast_cols(%7) {n=3} # pass=fwd scope="dec \"attn\" 0" t=1 shape=[2x3]
%9 = broadcast_rows(%3) {n=2} # pass=fwd scope="" t=-1 shape=[2x6]
%10 = pad_cols(%0) {lo=2 n=9} # pass=fwd scope="" t=-1 shape=[2x9]
%11 = pad_rows(%0) {lo=1 n=4} # pass=fwd scope="" t=-1 shape=[4x6]
%12 = lookup(%2, %1) # pass=fwd scope="" t=-1 shape=[3x4]
%13 = row_sums(%12) # pass=fwd scope="" t=-1 shape=[3x1]
%14 = lookup_grad(%1, %12) {n=10} # pass=bwd scope="" t=-1 shape=[10x4]
loss %13
grad %2 %14
`
	if got := g.TraceString(); got != want {
		t.Fatalf("trace changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

func TestIsElementwise(t *testing.T) {
	if !OpAdd.IsElementwise() || !OpSigmoidGrad.IsElementwise() {
		t.Fatal("expected elementwise")
	}
	if OpMatMul.IsElementwise() || OpSoftmax.IsElementwise() || OpConcatCols.IsElementwise() {
		t.Fatal("unexpected elementwise")
	}
}

func TestEvalGradOps(t *testing.T) {
	g := New()
	b := NewBuilder(g)
	x := g.Input("x", 1, 3)
	gin := g.Input("g", 1, 3)
	y := b.Sigmoid(x)
	sg := g.AddNode(OpSigmoidGrad, b.Prov(), Attr{}, gin, y)
	ty := b.Tanh(x)
	tg := g.AddNode(OpTanhGrad, b.Prov(), Attr{}, gin, ty)
	rg := g.AddNode(OpReLUGrad, b.Prov(), Attr{}, gin, x)
	env := Env{
		x:   tensor.FromSlice([]float64{0, 1, -2}, 1, 3),
		gin: tensor.FromSlice([]float64{1, 1, 1}, 1, 3),
	}
	for _, n := range g.Nodes {
		EvalNode(n, env)
	}
	if got := env[sg].Data()[0]; got != 0.25 {
		t.Fatalf("sigmoid_grad(0) = %v, want 0.25", got)
	}
	if got := env[tg].Data()[0]; got != 1 {
		t.Fatalf("tanh_grad(0) = %v, want 1", got)
	}
	if got := env[rg].Data(); got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("relu_grad = %v", got)
	}
}

func TestEvalLookupGradScatters(t *testing.T) {
	g := New()
	ids := g.Input("ids", 3, 1)
	gin := g.Input("g", 3, 2)
	out := g.AddNode(OpLookupGrad, Provenance{}, Attr{N: 4}, ids, gin)
	env := Env{
		ids: tensor.FromSlice([]float64{2, 0, 2}, 3, 1),
		gin: tensor.FromSlice([]float64{1, 1, 2, 2, 3, 3}, 3, 2),
	}
	EvalNode(out.Producer, env)
	table := env[out]
	if table.At(2, 0) != 4 || table.At(0, 1) != 2 || table.At(1, 0) != 0 {
		t.Fatalf("lookup_grad = %v", table.Data())
	}
}

func TestBytesEstimate(t *testing.T) {
	g := New()
	b := NewBuilder(g)
	x := g.Input("x", 4, 4)
	y := b.Add(x, x)
	if y.Producer.Bytes() != 8*(16+16+16) {
		t.Fatalf("Bytes = %d", y.Producer.Bytes())
	}
}

func TestEvalPadAndBroadcastOps(t *testing.T) {
	g := New()
	x := g.Input("x", 2, 3)
	padC := g.AddNode(OpPadCols, Provenance{}, Attr{Lo: 1, N: 5}, x)
	padR := g.AddNode(OpPadRows, Provenance{}, Attr{Lo: 1, N: 4}, x)
	col := g.Input("c", 2, 1)
	bc := g.AddNode(OpBroadcastCols, Provenance{}, Attr{N: 3}, col)
	rs := g.AddNode(OpRowSums, Provenance{}, Attr{}, x)
	sc := g.AddNode(OpScaleCols, Provenance{}, Attr{}, x, col)
	row := g.Input("r", 1, 3)
	br := g.AddNode(OpBroadcastRows, Provenance{}, Attr{N: 2}, row)
	sm := g.AddNode(OpSoftmax, Provenance{}, Attr{}, x)
	smg := g.AddNode(OpSoftmaxGrad, Provenance{}, Attr{}, x, sm)

	env := Env{
		x:   tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3),
		col: tensor.FromSlice([]float64{2, 3}, 2, 1),
		row: tensor.FromSlice([]float64{7, 8, 9}, 1, 3),
	}
	for _, n := range g.Nodes {
		EvalNode(n, env)
	}
	if got := env[padC]; got.At(0, 0) != 0 || got.At(0, 1) != 1 || got.At(0, 4) != 0 {
		t.Fatalf("pad_cols = %v", got.Data())
	}
	if got := env[padR]; got.At(0, 0) != 0 || got.At(1, 0) != 1 || got.At(3, 2) != 0 {
		t.Fatalf("pad_rows = %v", got.Data())
	}
	if got := env[bc]; got.At(0, 2) != 2 || got.At(1, 0) != 3 {
		t.Fatalf("broadcast_cols = %v", got.Data())
	}
	if got := env[rs]; got.At(0, 0) != 6 || got.At(1, 0) != 15 {
		t.Fatalf("row_sums = %v", got.Data())
	}
	if got := env[sc]; got.At(0, 0) != 2 || got.At(1, 2) != 18 {
		t.Fatalf("scale_cols = %v", got.Data())
	}
	if got := env[br]; got.At(1, 2) != 9 {
		t.Fatalf("broadcast_rows = %v", got.Data())
	}
	// softmax_grad of a constant upstream gradient is ~0 per row
	// (softmax is shift-invariant): g=x here, so just sanity-check shape.
	if !env[smg].Shape().Equal(tensor.Shape{2, 3}) {
		t.Fatalf("softmax_grad shape %v", env[smg].Shape())
	}
}

func TestEvalUnboundInputPanics(t *testing.T) {
	g := New()
	b := NewBuilder(g)
	x := g.Input("x", 1, 1)
	y := b.Tanh(x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EvalNode(y.Producer, Env{})
}

func TestRunUnboundInputPanics(t *testing.T) {
	g := New()
	g.Input("x", 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Run(Env{}, nil)
}

func TestStatsAndScopeList(t *testing.T) {
	g, _ := buildTinyModel()
	st := g.Stats()
	if st.Elementwise == 0 || st.Values == 0 || st.TotalFlops == 0 {
		t.Fatalf("stats = %+v", st)
	}
	scopes := g.ScopeList()
	if len(scopes) == 0 {
		t.Fatal("no scopes")
	}
}

func TestPassString(t *testing.T) {
	if Forward.String() != "fwd" || Backward.String() != "bwd" {
		t.Fatal("pass names")
	}
}

func TestOpStringUnknown(t *testing.T) {
	if Op(9999).String() == "" {
		t.Fatal("unknown op should still render")
	}
}
