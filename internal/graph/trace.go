package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"astra/internal/tensor"
)

// Trace serialises the graph in a textual format modelled on the PyTorch
// trace excerpts in the paper (`%10 = mm(%1, %5)`), extended with shape,
// attribute and provenance annotations. It is output only: cmd/astra-trace
// and astra.Model.Trace print it, and tests use it as a diff surface.
func (g *Graph) Trace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# astra trace v1")
	for _, v := range g.Inputs {
		fmt.Fprintf(bw, "input %s %q shape=%s\n", v, v.Name, shapeStr(v.Shape))
	}
	for _, v := range g.Params {
		fmt.Fprintf(bw, "param %s %q shape=%s\n", v, v.Name, shapeStr(v.Shape))
	}
	for _, v := range g.Values {
		if v.ConstData != nil && v.Producer == nil && !contains(g.Params, v) {
			fmt.Fprintf(bw, "const %s %q shape=%s\n", v, v.Name, shapeStr(v.Shape))
		}
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(bw, "%s = %s(", n.Out, n.Op)
		for i, in := range n.Inputs {
			if i > 0 {
				fmt.Fprint(bw, ", ")
			}
			fmt.Fprint(bw, in)
		}
		fmt.Fprint(bw, ")")
		if attrs := attrString(n); attrs != "" {
			fmt.Fprintf(bw, " {%s}", attrs)
		}
		fmt.Fprintf(bw, " # pass=%s scope=%q t=%d shape=%s\n",
			n.Prov.Pass, n.Prov.Scope, n.Prov.Timestep, shapeStr(n.Out.Shape))
	}
	if g.Loss != nil {
		fmt.Fprintf(bw, "loss %s\n", g.Loss)
	}
	for _, p := range g.Params {
		if gv, ok := g.Grads[p]; ok {
			fmt.Fprintf(bw, "grad %s %s\n", p, gv)
		}
	}
	return bw.Flush()
}

func contains(vs []*Value, v *Value) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func shapeStr(s tensor.Shape) string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = strconv.Itoa(d)
	}
	return "[" + strings.Join(parts, "x") + "]"
}

func attrString(n *Node) string {
	switch n.Op {
	case OpScale:
		return fmt.Sprintf("s=%g", n.Attr.Scalar)
	case OpSliceCols, OpSliceRows:
		return fmt.Sprintf("lo=%d hi=%d", n.Attr.Lo, n.Attr.Hi)
	case OpLookupGrad, OpBroadcastRows, OpBroadcastCols:
		return fmt.Sprintf("n=%d", n.Attr.N)
	case OpPadCols, OpPadRows:
		return fmt.Sprintf("lo=%d n=%d", n.Attr.Lo, n.Attr.N)
	}
	return ""
}

// TraceString renders the trace to a string.
func (g *Graph) TraceString() string {
	var b strings.Builder
	if err := g.Trace(&b); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}
