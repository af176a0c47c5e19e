// Package graph defines the data-flow-graph IR that Astra compiles and the
// runtime custom-wires. Nodes are tensor operators (the things that become
// simulated GPU kernels); values are the tensors flowing between them.
//
// The IR mirrors what the paper extracts from PyTorch's tracer: a flat list
// of SSA-style assignments such as
//
//	%10 = mm(%1, %5)
//
// annotated with provenance (which layer and timestep of the model emitted
// the node) that the enumerator uses to bound fusion groups and build
// equivalence classes.
package graph

import (
	"fmt"
	"sort"

	"astra/internal/tensor"
)

// Op identifies a tensor operator.
type Op int

// Operator kinds. MatMul nodes are the GEMMs that dominate training time
// and are the unit of fusion and kernel-library adaptation; the *Grad ops
// are the fused backward elementwise kernels a real framework ships.
const (
	OpInput Op = iota
	OpParam
	OpConst
	OpMatMul
	OpAdd
	OpSub
	OpMul
	OpScale
	OpSigmoid
	OpTanh
	OpReLU
	OpAddBias
	OpSoftmax
	OpConcatCols
	OpConcatRows
	OpSliceCols
	OpSliceRows
	OpTranspose
	OpLookup
	OpCrossEntropy
	OpSumRows
	OpSigmoidGrad
	OpTanhGrad
	OpReLUGrad
	OpCrossEntropyGrad
	OpLookupGrad
	OpSoftmaxGrad
	OpPadCols
	OpPadRows
	OpBroadcastRows
	OpScaleCols
	OpRowSums
	OpBroadcastCols
	opCount
)

var opNames = [...]string{
	OpInput:            "input",
	OpParam:            "param",
	OpConst:            "const",
	OpMatMul:           "mm",
	OpAdd:              "add",
	OpSub:              "sub",
	OpMul:              "mul",
	OpScale:            "scale",
	OpSigmoid:          "sigmoid",
	OpTanh:             "tanh",
	OpReLU:             "relu",
	OpAddBias:          "add_bias",
	OpSoftmax:          "softmax",
	OpConcatCols:       "concat_cols",
	OpConcatRows:       "concat_rows",
	OpSliceCols:        "slice_cols",
	OpSliceRows:        "slice_rows",
	OpTranspose:        "t",
	OpLookup:           "lookup",
	OpCrossEntropy:     "cross_entropy",
	OpSumRows:          "sum_rows",
	OpSigmoidGrad:      "sigmoid_grad",
	OpTanhGrad:         "tanh_grad",
	OpReLUGrad:         "relu_grad",
	OpCrossEntropyGrad: "cross_entropy_grad",
	OpLookupGrad:       "lookup_grad",
	OpSoftmaxGrad:      "softmax_grad",
	OpPadCols:          "pad_cols",
	OpPadRows:          "pad_rows",
	OpBroadcastRows:    "broadcast_rows",
	OpScaleCols:        "scale_cols",
	OpRowSums:          "row_sums",
	OpBroadcastCols:    "broadcast_cols",
}

// String returns the trace mnemonic for the operator.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) || opNames[o] == "" {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// IsElementwise reports whether the op touches each element independently,
// which makes it a candidate for elementwise fusion (§5.3 of the paper).
func (o Op) IsElementwise() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpScale, OpSigmoid, OpTanh, OpReLU,
		OpSigmoidGrad, OpTanhGrad, OpReLUGrad, OpAddBias:
		return true
	}
	return false
}

// Pass distinguishes forward from backward nodes; the paper notes roughly
// two-thirds of training compute is in the backward pass.
type Pass int

// Pass values.
const (
	Forward Pass = iota
	Backward
)

// String names the pass.
func (p Pass) String() string {
	if p == Backward {
		return "bwd"
	}
	return "fwd"
}

// Provenance records where in the model source a node came from. The
// enumerator only fuses GEMMs with the same provenance scope (the paper's
// "same provenance wrt GEMM nodes") and uses (Scope, Timestep) to find the
// repeated per-timestep structure of recurrent models.
type Provenance struct {
	Scope    string // dotted model path, e.g. "lstm0.cell"
	Timestep int    // recurrent step index, -1 if not in a recurrence
	Pass     Pass
}

// Value is an SSA tensor edge.
type Value struct {
	ID       int
	Shape    tensor.Shape
	Producer *Node // nil for inputs, params and consts
	Name     string
	// ConstData holds the tensor for OpConst producers' outputs as well
	// as for parameter initial values; nil otherwise.
	ConstData *tensor.Tensor
}

// String renders the SSA name, e.g. "%12".
func (v *Value) String() string { return fmt.Sprintf("%%%d", v.ID) }

// Attr carries the small amount of per-node static configuration.
type Attr struct {
	Scalar float64 // OpScale factor
	Lo, Hi int     // OpSliceCols/OpSliceRows bounds
	N      int     // OpLookupGrad table rows
}

// Node is one operator instance.
type Node struct {
	ID     int
	Op     Op
	Inputs []*Value
	Out    *Value
	Attr   Attr
	Prov   Provenance
}

// String renders the node in the paper's trace format.
func (n *Node) String() string {
	s := fmt.Sprintf("%s = %s(", n.Out, n.Op)
	for i, in := range n.Inputs {
		if i > 0 {
			s += ", "
		}
		s += in.String()
	}
	return s + ")"
}

// Flops estimates the floating-point work of the node; the enumerator uses
// this to carve super-epochs (§4.5.3) and balance streams (§4.8).
func (n *Node) Flops() int64 {
	switch n.Op {
	case OpMatMul:
		m := int64(n.Inputs[0].Shape.Rows())
		k := int64(n.Inputs[0].Shape.Cols())
		nn := int64(n.Inputs[1].Shape.Cols())
		return 2 * m * k * nn
	case OpInput, OpParam, OpConst:
		return 0
	case OpSoftmax, OpCrossEntropy, OpCrossEntropyGrad:
		return 5 * int64(n.Inputs[0].Shape.NumElements())
	default:
		if n.Out != nil {
			return int64(n.Out.Shape.NumElements())
		}
		return 0
	}
}

// Bytes estimates the memory traffic of the node (inputs read + output
// written), in elements; kernel cost models convert to time.
func (n *Node) Bytes() int64 {
	var b int64
	for _, in := range n.Inputs {
		b += int64(in.Shape.NumElements())
	}
	if n.Out != nil {
		b += int64(n.Out.Shape.NumElements())
	}
	return b * 8
}

// Graph is a whole training-step program: forward pass, loss, and (after
// autodiff) the backward pass, in emission order, which is a valid
// topological order.
type Graph struct {
	Nodes  []*Node
	Values []*Value
	Inputs []*Value
	Params []*Value
	Loss   *Value
	// Grads maps a parameter value to the value holding its gradient.
	Grads map[*Value]*Value

	nextValueID int
	nextNodeID  int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{Grads: make(map[*Value]*Value)}
}

// NewValue allocates a fresh SSA value with the given shape.
func (g *Graph) NewValue(shape tensor.Shape, name string) *Value {
	v := &Value{ID: g.nextValueID, Shape: shape.Clone(), Name: name}
	g.nextValueID++
	g.Values = append(g.Values, v)
	return v
}

// Input declares a per-mini-batch input tensor (e.g. token ids, targets).
func (g *Graph) Input(name string, shape ...int) *Value {
	v := g.NewValue(shape, name)
	g.Inputs = append(g.Inputs, v)
	return v
}

// Param declares a trainable parameter with an initial value.
func (g *Graph) Param(name string, init *tensor.Tensor) *Value {
	v := g.NewValue(init.Shape(), name)
	v.ConstData = init
	g.Params = append(g.Params, v)
	return v
}

// Const declares a constant tensor.
func (g *Graph) Const(name string, data *tensor.Tensor) *Value {
	v := g.NewValue(data.Shape(), name)
	v.ConstData = data
	return v
}

// AddNode appends an operator node computing a new value and returns that
// value. Shape inference panics on operator misuse: graphs are built by
// model code under test, so a malformed graph is a programming error.
func (g *Graph) AddNode(op Op, prov Provenance, attr Attr, inputs ...*Value) *Value {
	out := g.NewValue(inferShape(op, attr, inputs), "")
	n := &Node{ID: g.nextNodeID, Op: op, Inputs: inputs, Out: out, Attr: attr, Prov: prov}
	g.nextNodeID++
	out.Producer = n
	g.Nodes = append(g.Nodes, n)
	return out
}

// inferShape is the panicking form of InferShape used by the builder API,
// where a malformed graph is a programming error in model code under test.
func inferShape(op Op, attr Attr, in []*Value) tensor.Shape {
	s, err := InferShape(op, attr, in)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// InferShape computes the output shape of op applied to the given inputs,
// or an error describing the operator misuse. It is the single source of
// truth for operator shape semantics: the builder panics on its errors,
// Validate returns them, and the plan verifier re-checks every edge of a
// finished graph against it.
func InferShape(op Op, attr Attr, in []*Value) (tensor.Shape, error) {
	if err := checkArity(op, in); err != nil {
		return nil, err
	}
	switch op {
	case OpMatMul:
		if in[0].Shape.Cols() != in[1].Shape.Rows() {
			return nil, fmt.Errorf("graph: mm %v x %v", in[0].Shape, in[1].Shape)
		}
		return tensor.Shape{in[0].Shape.Rows(), in[1].Shape.Cols()}, nil
	case OpAdd, OpSub, OpMul:
		if !in[0].Shape.Equal(in[1].Shape) {
			return nil, fmt.Errorf("graph: %v shapes %v vs %v", op, in[0].Shape, in[1].Shape)
		}
		return in[0].Shape.Clone(), nil
	case OpScale, OpSigmoid, OpTanh, OpReLU, OpSoftmax:
		return in[0].Shape.Clone(), nil
	case OpAddBias:
		if in[1].Shape.NumElements() != in[0].Shape.Cols() {
			return nil, fmt.Errorf("graph: add_bias %v + %v", in[0].Shape, in[1].Shape)
		}
		return in[0].Shape.Clone(), nil
	case OpConcatCols:
		cols := 0
		for _, v := range in {
			if v.Shape.Rows() != in[0].Shape.Rows() {
				return nil, fmt.Errorf("graph: concat_cols row mismatch")
			}
			cols += v.Shape.Cols()
		}
		return tensor.Shape{in[0].Shape.Rows(), cols}, nil
	case OpConcatRows:
		rows := 0
		for _, v := range in {
			if v.Shape.Cols() != in[0].Shape.Cols() {
				return nil, fmt.Errorf("graph: concat_rows col mismatch")
			}
			rows += v.Shape.Rows()
		}
		return tensor.Shape{rows, in[0].Shape.Cols()}, nil
	case OpSliceCols:
		if attr.Lo < 0 || attr.Hi > in[0].Shape.Cols() || attr.Lo > attr.Hi {
			return nil, fmt.Errorf("graph: slice_cols [%d,%d) of %v", attr.Lo, attr.Hi, in[0].Shape)
		}
		return tensor.Shape{in[0].Shape.Rows(), attr.Hi - attr.Lo}, nil
	case OpSliceRows:
		if attr.Lo < 0 || attr.Hi > in[0].Shape.Rows() || attr.Lo > attr.Hi {
			return nil, fmt.Errorf("graph: slice_rows [%d,%d) of %v", attr.Lo, attr.Hi, in[0].Shape)
		}
		return tensor.Shape{attr.Hi - attr.Lo, in[0].Shape.Cols()}, nil
	case OpTranspose:
		return tensor.Shape{in[0].Shape.Cols(), in[0].Shape.Rows()}, nil
	case OpLookup:
		return tensor.Shape{in[1].Shape.NumElements(), in[0].Shape.Cols()}, nil
	case OpCrossEntropy:
		return tensor.Shape{1, 1}, nil
	case OpSumRows:
		return tensor.Shape{1, in[0].Shape.Cols()}, nil
	case OpSigmoidGrad, OpTanhGrad, OpReLUGrad:
		if !in[0].Shape.Equal(in[1].Shape) {
			return nil, fmt.Errorf("graph: %v shapes %v vs %v", op, in[0].Shape, in[1].Shape)
		}
		return in[0].Shape.Clone(), nil
	case OpCrossEntropyGrad:
		return in[0].Shape.Clone(), nil
	case OpLookupGrad:
		if attr.N <= 0 {
			return nil, fmt.Errorf("graph: lookup_grad table rows n=%d", attr.N)
		}
		return tensor.Shape{attr.N, in[1].Shape.Cols()}, nil
	case OpSoftmaxGrad:
		if !in[0].Shape.Equal(in[1].Shape) {
			return nil, fmt.Errorf("graph: softmax_grad shapes %v vs %v", in[0].Shape, in[1].Shape)
		}
		return in[0].Shape.Clone(), nil
	case OpPadCols:
		if attr.Lo < 0 || attr.Lo+in[0].Shape.Cols() > attr.N {
			return nil, fmt.Errorf("graph: pad_cols lo=%d n=%d of %v", attr.Lo, attr.N, in[0].Shape)
		}
		return tensor.Shape{in[0].Shape.Rows(), attr.N}, nil
	case OpPadRows:
		if attr.Lo < 0 || attr.Lo+in[0].Shape.Rows() > attr.N {
			return nil, fmt.Errorf("graph: pad_rows lo=%d n=%d of %v", attr.Lo, attr.N, in[0].Shape)
		}
		return tensor.Shape{attr.N, in[0].Shape.Cols()}, nil
	case OpBroadcastRows:
		if in[0].Shape.Rows() != 1 {
			return nil, fmt.Errorf("graph: broadcast_rows of %v", in[0].Shape)
		}
		return tensor.Shape{attr.N, in[0].Shape.Cols()}, nil
	case OpScaleCols:
		if in[1].Shape.Cols() != 1 || in[1].Shape.Rows() != in[0].Shape.Rows() {
			return nil, fmt.Errorf("graph: scale_cols %v by %v", in[0].Shape, in[1].Shape)
		}
		return in[0].Shape.Clone(), nil
	case OpRowSums:
		return tensor.Shape{in[0].Shape.Rows(), 1}, nil
	case OpBroadcastCols:
		if in[0].Shape.Cols() != 1 {
			return nil, fmt.Errorf("graph: broadcast_cols of %v", in[0].Shape)
		}
		return tensor.Shape{in[0].Shape.Rows(), attr.N}, nil
	default:
		return nil, fmt.Errorf("graph: InferShape for %v", op)
	}
}

// checkArity validates the input count for an operator.
func checkArity(op Op, in []*Value) error {
	want := -1 // -1: variadic with a minimum of 2 (the concats)
	switch op {
	case OpScale, OpSigmoid, OpTanh, OpReLU, OpSoftmax, OpSliceCols, OpSliceRows,
		OpTranspose, OpSumRows, OpPadCols, OpPadRows, OpBroadcastRows, OpRowSums,
		OpBroadcastCols:
		want = 1
	case OpMatMul, OpAdd, OpSub, OpMul, OpAddBias, OpLookup, OpCrossEntropy,
		OpSigmoidGrad, OpTanhGrad, OpReLUGrad, OpCrossEntropyGrad, OpLookupGrad,
		OpSoftmaxGrad, OpScaleCols:
		want = 2
	}
	if want < 0 {
		if len(in) < 2 {
			return fmt.Errorf("graph: %v needs >=2 inputs, got %d", op, len(in))
		}
		return nil
	}
	if len(in) != want {
		return fmt.Errorf("graph: %v expects %d inputs, got %d", op, want, len(in))
	}
	for _, v := range in {
		if v == nil {
			return fmt.Errorf("graph: %v with nil input", op)
		}
	}
	return nil
}

// Consumers returns, for every value, the nodes that read it, in node order.
func (g *Graph) Consumers() map[*Value][]*Node {
	c := make(map[*Value][]*Node, len(g.Values))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			c[in] = append(c[in], n)
		}
	}
	return c
}

// NodeByOutput returns a map from value to producing node.
func (g *Graph) NodeByOutput() map[*Value]*Node {
	m := make(map[*Value]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		m[n.Out] = n
	}
	return m
}

// Validate checks structural invariants: emission order is topological,
// every input of a node is either a leaf (input/param/const) or produced by
// an earlier node, and shapes agree with operator semantics.
func (g *Graph) Validate() error {
	seen := make(map[*Value]bool, len(g.Values))
	for _, v := range g.Inputs {
		seen[v] = true
	}
	for _, v := range g.Params {
		seen[v] = true
	}
	for _, v := range g.Values {
		if v.ConstData != nil {
			seen[v] = true
		}
	}
	for i, n := range g.Nodes {
		for _, in := range n.Inputs {
			if !seen[in] {
				return fmt.Errorf("graph: node %d (%s) reads %s before it is defined", i, n, in)
			}
		}
		want, err := InferShape(n.Op, n.Attr, n.Inputs)
		if err != nil {
			return fmt.Errorf("graph: node %d (%s): %w", i, n, err)
		}
		if !want.Equal(n.Out.Shape) {
			return fmt.Errorf("graph: node %d (%s) output shape %v, want %v", i, n, n.Out.Shape, want)
		}
		seen[n.Out] = true
	}
	return nil
}

// TotalFlops sums the static flop estimate over all nodes.
func (g *Graph) TotalFlops() int64 {
	var f int64
	for _, n := range g.Nodes {
		f += n.Flops()
	}
	return f
}

// MatMulNodes returns the GEMM nodes in emission order.
func (g *Graph) MatMulNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Op == OpMatMul {
			out = append(out, n)
		}
	}
	return out
}

// Stats summarises the graph for reports.
type Stats struct {
	Nodes, MatMuls, Elementwise int
	Values                      int
	TotalFlops                  int64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), Values: len(g.Values), TotalFlops: g.TotalFlops()}
	for _, n := range g.Nodes {
		switch {
		case n.Op == OpMatMul:
			s.MatMuls++
		case n.Op.IsElementwise():
			s.Elementwise++
		}
	}
	return s
}

// ScopeList returns the distinct provenance scopes in first-seen order.
func (g *Graph) ScopeList() []string {
	seen := make(map[string]bool)
	var out []string
	for _, n := range g.Nodes {
		if !seen[n.Prov.Scope] {
			seen[n.Prov.Scope] = true
			out = append(out, n.Prov.Scope)
		}
	}
	sort.Strings(out)
	return out
}
