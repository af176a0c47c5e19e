package graph

import (
	"fmt"

	"astra/internal/tensor"
)

// Env binds values to concrete tensors during execution.
type Env map[*Value]*tensor.Tensor

// EvalNode computes a single node given its inputs from env and stores the
// result in env. It defines the value semantics of every operator; all
// dispatchers (native, XLA, cuDNN, Astra) share it, which is what makes
// the value-preservation tests meaningful.
func EvalNode(n *Node, env Env) *tensor.Tensor {
	in := make([]*tensor.Tensor, len(n.Inputs))
	for i, v := range n.Inputs {
		t, ok := env[v]
		if !ok {
			panic(fmt.Sprintf("graph: eval %s with unbound input %s", n, v))
		}
		in[i] = t
	}
	var out *tensor.Tensor
	switch n.Op {
	case OpMatMul:
		out = tensor.MatMul(in[0], in[1])
	case OpAdd:
		out = tensor.Add(in[0], in[1])
	case OpSub:
		out = tensor.Sub(in[0], in[1])
	case OpMul:
		out = tensor.Mul(in[0], in[1])
	case OpScale:
		out = tensor.Scale(in[0], n.Attr.Scalar)
	case OpSigmoid:
		out = tensor.Sigmoid(in[0])
	case OpTanh:
		out = tensor.Tanh(in[0])
	case OpReLU:
		out = tensor.ReLU(in[0])
	case OpAddBias:
		out = tensor.AddBias(in[0], in[1])
	case OpSoftmax:
		out = tensor.Softmax(in[0])
	case OpConcatCols:
		out = tensor.ConcatCols(in...)
	case OpConcatRows:
		out = tensor.ConcatRows(in...)
	case OpSliceCols:
		out = tensor.SliceCols(in[0], n.Attr.Lo, n.Attr.Hi)
	case OpSliceRows:
		out = tensor.SliceRows(in[0], n.Attr.Lo, n.Attr.Hi)
	case OpTranspose:
		out = tensor.Transpose(in[0])
	case OpLookup:
		out = tensor.Lookup(in[0], in[1])
	case OpCrossEntropy:
		out = tensor.CrossEntropy(in[0], in[1])
	case OpSumRows:
		out = tensor.SumRows(in[0])
	case OpSigmoidGrad:
		// dL/dx = g ⊙ y ⊙ (1−y), where y = sigmoid(x) (input 1).
		y := in[1]
		out = tensor.New(y.Shape()...)
		g, yd, od := in[0].Data(), y.Data(), out.Data()
		for i := range od {
			od[i] = g[i] * yd[i] * (1 - yd[i])
		}
	case OpTanhGrad:
		// dL/dx = g ⊙ (1−y²), where y = tanh(x) (input 1).
		y := in[1]
		out = tensor.New(y.Shape()...)
		g, yd, od := in[0].Data(), y.Data(), out.Data()
		for i := range od {
			od[i] = g[i] * (1 - yd[i]*yd[i])
		}
	case OpReLUGrad:
		// dL/dx = g where x>0, else 0 (input 1 is the pre-activation x).
		x := in[1]
		out = tensor.New(x.Shape()...)
		g, xd, od := in[0].Data(), x.Data(), out.Data()
		for i := range od {
			if xd[i] > 0 {
				od[i] = g[i]
			}
		}
	case OpCrossEntropyGrad:
		// d(mean NLL)/dlogits = (softmax(logits) − onehot(targets)) / m.
		logits, targets := in[0], in[1]
		out = tensor.Softmax(logits)
		m := logits.Shape().Rows()
		cols := logits.Shape().Cols()
		od := out.Data()
		for i := 0; i < m; i++ {
			od[i*cols+int(targets.Data()[i])] -= 1
		}
		for i := range od {
			od[i] /= float64(m)
		}
	case OpLookupGrad:
		// Scatter-add of row gradients back into the embedding table.
		ids, g := in[0], in[1]
		cols := g.Shape().Cols()
		out = tensor.New(n.Attr.N, cols)
		od := out.Data()
		for i := 0; i < ids.NumElements(); i++ {
			row := int(ids.Data()[i])
			for j := 0; j < cols; j++ {
				od[row*cols+j] += g.Data()[i*cols+j]
			}
		}
	case OpSoftmaxGrad:
		// dL/dx = y ⊙ (g − rowsum(g ⊙ y)) for y = softmax(x) (input 1).
		g, y := in[0], in[1]
		m, cols := y.Shape().Rows(), y.Shape().Cols()
		out = tensor.New(m, cols)
		gd, yd, od := g.Data(), y.Data(), out.Data()
		for i := 0; i < m; i++ {
			dot := 0.0
			for j := 0; j < cols; j++ {
				dot += gd[i*cols+j] * yd[i*cols+j]
			}
			for j := 0; j < cols; j++ {
				od[i*cols+j] = yd[i*cols+j] * (gd[i*cols+j] - dot)
			}
		}
	case OpPadCols:
		src := in[0]
		m, w := src.Shape().Rows(), src.Shape().Cols()
		out = tensor.New(m, n.Attr.N)
		for i := 0; i < m; i++ {
			copy(out.Data()[i*n.Attr.N+n.Attr.Lo:i*n.Attr.N+n.Attr.Lo+w], src.Data()[i*w:(i+1)*w])
		}
	case OpPadRows:
		src := in[0]
		cols := src.Shape().Cols()
		out = tensor.New(n.Attr.N, cols)
		copy(out.Data()[n.Attr.Lo*cols:], src.Data())
	case OpBroadcastRows:
		src := in[0]
		cols := src.Shape().Cols()
		out = tensor.New(n.Attr.N, cols)
		for i := 0; i < n.Attr.N; i++ {
			copy(out.Data()[i*cols:(i+1)*cols], src.Data())
		}
	case OpScaleCols:
		// out[i,j] = x[i,j] * s[i,0] — the per-row attention weighting.
		x, s := in[0], in[1]
		m, cols := x.Shape().Rows(), x.Shape().Cols()
		out = tensor.New(m, cols)
		for i := 0; i < m; i++ {
			w := s.Data()[i]
			for j := 0; j < cols; j++ {
				out.Data()[i*cols+j] = x.Data()[i*cols+j] * w
			}
		}
	case OpRowSums:
		x := in[0]
		m, cols := x.Shape().Rows(), x.Shape().Cols()
		out = tensor.New(m, 1)
		for i := 0; i < m; i++ {
			s := 0.0
			for j := 0; j < cols; j++ {
				s += x.Data()[i*cols+j]
			}
			out.Data()[i] = s
		}
	case OpBroadcastCols:
		x := in[0]
		m := x.Shape().Rows()
		out = tensor.New(m, n.Attr.N)
		for i := 0; i < m; i++ {
			v := x.Data()[i]
			for j := 0; j < n.Attr.N; j++ {
				out.Data()[i*n.Attr.N+j] = v
			}
		}
	default:
		panic(fmt.Sprintf("graph: eval unsupported op %v", n.Op))
	}
	env[n.Out] = out
	return out
}

// Run executes the whole graph in emission order. inputs must bind every
// graph input; parameters and constants are taken from params if bound
// there, else from their declared initial values. It returns the
// environment holding every computed value.
func (g *Graph) Run(inputs Env, params Env) Env {
	env := make(Env, len(g.Values))
	for _, v := range g.Inputs {
		t, ok := inputs[v]
		if !ok {
			panic(fmt.Sprintf("graph: run with unbound input %s (%s)", v, v.Name))
		}
		env[v] = t
	}
	g.BindConsts(env, params)
	for _, n := range g.Nodes {
		EvalNode(n, env)
	}
	return env
}

// BindConsts binds every parameter and constant of g in env: to its tensor
// in params where params binds it (a nil params binds none), else to its
// own data, made on first use.
func (g *Graph) BindConsts(env, params Env) {
	for _, v := range g.Values {
		if !v.IsConst() {
			continue
		}
		if t, ok := params[v]; ok {
			env[v] = t
			continue
		}
		env[v] = v.Data()
	}
}

// InitialParams returns a fresh binding of every parameter to a new tensor
// holding its initial value, made straight from its recipe, suitable for a
// training session that updates weights. It leaves the graph's own copy
// unmade.
func (g *Graph) InitialParams() Env {
	env := make(Env, len(g.Params))
	for _, p := range g.Params {
		env[p] = p.c.recipe.New()
	}
	return env
}
