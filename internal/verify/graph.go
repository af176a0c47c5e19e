package verify

import (
	"fmt"

	"astra/internal/graph"
)

// CheckGraph verifies the structural invariants of the graph IR itself,
// independently of Graph.Validate (which trusts emission order): SSA
// single-definition, acyclicity by explicit topological sort, shape
// consistency of every node against operator semantics, provenance sanity,
// and the loss/gradient bookkeeping.
func CheckGraph(g *graph.Graph) *Report {
	r := &Report{}
	if g == nil {
		r.Add("graph.nil", "", "nil graph")
		return r
	}

	// SSA: every value is defined exactly once — at most one producing node,
	// and the producer back-pointer agrees with the node list.
	producers := map[*graph.Value]*graph.Node{}
	for _, n := range g.Nodes {
		if n.Out == nil {
			r.Add("graph.ssa", "", fmt.Sprintf("node %s has no output value", n))
			continue
		}
		if prev, ok := producers[n.Out]; ok {
			r.Add("graph.ssa", "", fmt.Sprintf("value %s defined by both %s and %s", n.Out, prev, n))
			continue
		}
		producers[n.Out] = n
		if n.Out.Producer != n {
			r.Add("graph.ssa", "", fmt.Sprintf("value %s producer back-pointer disagrees with node %s", n.Out, n))
		}
	}
	leaves := map[*graph.Value]bool{}
	for _, v := range g.Inputs {
		leaves[v] = true
	}
	for _, v := range g.Params {
		leaves[v] = true
	}
	for _, v := range g.Values {
		if v.IsConst() {
			leaves[v] = true
			// Data is made on first read, so a recipe that disagrees with
			// its value's shape would surface only in a value-evaluating
			// run; check it here, where timing-only runs pass too.
			if n, want := v.Recipe().Shape().NumElements(), v.Shape.NumElements(); n != want {
				r.Add("graph.const", "", fmt.Sprintf("value %s (%s) has shape %v but its recipe makes %d elements", v, v.Name, v.Shape, n))
			}
		}
	}
	for _, v := range g.Values {
		if leaves[v] && producers[v] != nil {
			r.Add("graph.ssa", "", fmt.Sprintf("leaf value %s also produced by %s", v, producers[v]))
		}
	}

	// Acyclicity: Kahn's algorithm over node->node edges through values.
	// This deliberately ignores the emission order — a loaded graph whose
	// Nodes slice is shuffled but acyclic passes; a genuine cycle fails.
	indeg := map[*graph.Node]int{}
	consumers := map[*graph.Node][]*graph.Node{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == nil {
				r.Add("graph.shape", "", fmt.Sprintf("node %s has nil input", n))
				continue
			}
			if p := producers[in]; p != nil {
				indeg[n]++
				consumers[p] = append(consumers[p], n)
			} else if !leaves[in] {
				r.Add("graph.ssa", "", fmt.Sprintf("node %s reads %s, which is neither a leaf nor produced", n, in))
			}
		}
	}
	var ready []*graph.Node
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	emitted := 0
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		emitted++
		for _, c := range consumers[n] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if emitted != len(g.Nodes) {
		r.Add("graph.cycle", "", fmt.Sprintf("dependency cycle: %d of %d nodes unreachable by topological sort", len(g.Nodes)-emitted, len(g.Nodes)))
	}

	// Shape consistency: re-derive every node's output shape from operator
	// semantics and compare with the recorded one.
	for _, n := range g.Nodes {
		if n.Out == nil || hasNilInput(n) {
			continue
		}
		want, err := graph.InferShape(n.Op, n.Attr, n.Inputs)
		if err != nil {
			r.Add("graph.shape", "", fmt.Sprintf("node %s: %v", n, err))
			continue
		}
		if !want.Equal(n.Out.Shape) {
			r.Add("graph.shape", "", fmt.Sprintf("node %s output shape %v, operator semantics give %v", n, n.Out.Shape, want))
		}
	}

	// Provenance sanity: pass is one of the two known passes, and a
	// recurrent timestep is -1 (not recurrent) or non-negative.
	for _, n := range g.Nodes {
		if n.Prov.Pass != graph.Forward && n.Prov.Pass != graph.Backward {
			r.Add("graph.prov", "", fmt.Sprintf("node %s has unknown pass %d", n, n.Prov.Pass))
		}
		if n.Prov.Timestep < -1 {
			r.Add("graph.prov", "", fmt.Sprintf("node %s has timestep %d", n, n.Prov.Timestep))
		}
	}

	// Loss and gradient bookkeeping: the loss is a known scalar; every
	// gradient is keyed by a parameter and shaped like it.
	known := map[*graph.Value]bool{}
	for _, v := range g.Values {
		known[v] = true
	}
	if g.Loss != nil {
		if !known[g.Loss] {
			r.Add("graph.grad", "", "loss value is not in the graph")
		} else if g.Loss.Shape.NumElements() != 1 {
			r.Add("graph.grad", "", fmt.Sprintf("loss %s has shape %v, want scalar", g.Loss, g.Loss.Shape))
		}
	}
	params := map[*graph.Value]bool{}
	for _, v := range g.Params {
		params[v] = true
	}
	for p, gv := range g.Grads {
		if p == nil || gv == nil {
			r.Add("graph.grad", "", "nil entry in gradient map")
			continue
		}
		if !params[p] {
			r.Add("graph.grad", "", fmt.Sprintf("gradient keyed by non-parameter %s", p))
		}
		if !known[gv] {
			r.Add("graph.grad", "", fmt.Sprintf("gradient %s of %s is not in the graph", gv, p))
		} else if !gv.Shape.Equal(p.Shape) {
			r.Add("graph.grad", "", fmt.Sprintf("gradient %s shape %v, parameter %s shape %v", gv, gv.Shape, p, p.Shape))
		}
	}
	return r
}

func hasNilInput(n *graph.Node) bool {
	for _, in := range n.Inputs {
		if in == nil {
			return true
		}
	}
	return false
}
