package adapt

import (
	"fmt"
	"hash/fnv"
	"testing"

	"astra/internal/profile"
)

// freshContexts recomputes afresh the profile context of every
// variable under t with the concatenating walk the explorer memoizes:
// prefix siblings extend the context with "/title:digest" of each frozen
// earlier sibling, or run under "…/pending" behind one still exploring, and
// a fork's subtree runs under "/policy=label". A subtree counts as
// converged exactly when its variables froze, which is what the
// explorer's walk returns. It reports whether t converged.
func freshContexts(t *Tree, ctx string, out map[*Var]string) bool {
	switch {
	case t.Var != nil:
		out[t.Var] = ctx
		return t.Var.Frozen()
	case t.Mode == Exhaustive:
		for _, v := range t.Vars() {
			out[v] = ctx
		}
		return t.comp.Frozen()
	case t.Mode == Fork:
		policy := t.Children[0].Var
		out[policy] = ctx
		freshContexts(t.Children[1], ctx+"/"+policy.ID+"="+policy.CurrentLabel(), out)
		return policy.Frozen()
	case t.Mode == Prefix:
		childCtx := ctx
		for i, c := range t.Children {
			if !freshContexts(c, childCtx, out) {
				for _, later := range t.Children[i+1:] {
					for _, v := range later.Vars() {
						out[v] = childCtx + "/pending"
					}
				}
				return false
			}
			childCtx = childCtx + "/" + t.Title + ":" + freshDigest(c)
		}
		return true
	}
	done := true
	for _, c := range t.Children {
		if !freshContexts(c, ctx, out) {
			done = false
		}
	}
	return done
}

// freshDigest is the prefix digest computed with hash/fnv.
func freshDigest(t *Tree) string {
	h := fnv.New32a()
	for _, v := range t.Vars() {
		h.Write([]byte(v.ID))
		h.Write([]byte{'='})
		h.Write([]byte(v.CurrentLabel()))
		h.Write([]byte{';'})
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// CheckFreshContexts fails unless every variable's context and every
// choice's profile key equal their fresh recomputation. The
// zoo-wide test in this directory's external test package calls it after
// every trial of a real session.
func CheckFreshContexts(t *testing.T, what string, e *Explorer, trial int) {
	t.Helper()
	want := map[*Var]string{}
	freshContexts(e.root, e.base, want)
	for _, v := range e.vars {
		ctx, ok := want[v]
		if !ok {
			t.Fatalf("%s trial %d: the recomputation never reached %s", what, trial, v.ID)
		}
		if v.Context() != ctx {
			t.Fatalf("%s trial %d: %s has context %q, recomputed %q", what, trial, v.ID, v.Context(), ctx)
		}
		for c, l := range v.Labels {
			if k := v.KeyFor(c); k != profile.K(ctx, v.ID, l) {
				t.Fatalf("%s trial %d: %s choice %s has key %q, recomputed %q", what, trial, v.ID, l, k, profile.K(ctx, v.ID, l))
			}
		}
	}
}

// TestDigestMatchesFNV: the inline digest is hash/fnv's New32a over
// "ID=label;" per variable in walk order, so every context string built
// from it is the one the fnv-based digest built.
func TestDigestMatchesFNV(t *testing.T) {
	k1, k2 := NewVar("k1", "s0", "s1"), NewVar("k2", "s0", "s1", "s2")
	composite := NewNode("ep", Exhaustive, LeafNode(k1), LeafNode(k2))
	composite.comp.current, k1.current, k2.current = 5, 1, 2 // tuple "s1,s2"
	moved := NewVar("fuse1.lib", "cublas", "magma", "cutlass")
	moved.current = 2
	cases := []struct {
		name string
		tree *Tree
	}{
		{"leaf at default", LeafNode(NewVar("fuse1.chunk", "1", "2", "4"))},
		{"leaf moved", LeafNode(moved)},
		{"empty label", LeafNode(NewVar("x", ""))},
		{"non-ascii", LeafNode(NewVar("größe", "µs", "∞"))},
		{"prefix pair", NewNode("fuse9", Prefix, LeafNode(NewVar("fuse9.chunk", "1", "2")), LeafNode(NewVar("fuse9.lib", "a", "b")))},
		{"exhaustive composite", composite},
		{"nested fork", NewNode("root", Fork, LeafNode(NewVar("alloc", "alloc0", "alloc1")),
			NewNode("body", Parallel, LeafNode(NewVar("n1.lib", "a", "b")), composite))},
	}
	for _, c := range cases {
		h := fnv.New32a()
		for _, v := range c.tree.Vars() {
			fmt.Fprintf(h, "%s=%s;", v.ID, v.CurrentLabel())
		}
		if got, want := digest(c.tree), h.Sum32(); got != want {
			t.Errorf("%s: digest %08x, hash/fnv New32a %08x", c.name, got, want)
		}
	}
}

// TestNestedForkContextsMatchFreshWalk drives a fork nested under a prefix
// — the fork's own input context then carries an earlier sibling's digest
// — through convergence, a thaw that re-freezes that sibling to another
// choice, and re-convergence, comparing every context with the fresh walk
// after each trial. A memo that ignored its input context would keep the
// subtree's contexts from before the thaw.
func TestNestedForkContextsMatchFreshWalk(t *testing.T) {
	ix := profile.NewIndex()
	a := NewVar("a", "a0", "a1")
	policy := NewVar("alloc", "p0", "p1")
	b := NewVar("b", "b0", "b1", "b2")
	c := NewVar("c", "c0", "c1")
	tree := NewNode("outer", Prefix,
		LeafNode(a),
		NewNode("root", Fork, LeafNode(policy), NewNode("inner", Prefix, LeafNode(b), LeafNode(c))))
	e := NewExplorerPrior(tree, ix, "job:test", nil)
	costA := []float64{1, 2}
	metrics := func() map[string]float64 {
		sub := float64(1+b.Current()) * float64(2-c.Current()) * float64(1+policy.Current())
		return map[string]float64{"a": costA[a.Current()], "alloc": sub, "b": sub, "c": sub}
	}
	trial := 0
	run := func() {
		for ; !e.Done(); trial++ {
			CheckFreshContexts(t, "nested fork", e, trial)
			if trial > 200 {
				t.Fatal("exploration did not converge")
			}
			e.Observe(metrics())
			e.Advance()
		}
		CheckFreshContexts(t, "nested fork", e, trial)
	}
	run()
	before := c.Context()
	costA = []float64{2, 1} // a's best flips: the fork's input context changes
	e.Thaw("a")
	run()
	if a.Current() != 1 || c.Context() == before {
		t.Fatalf("a re-froze to %s and c kept context %q: the thaw moved no context", a.CurrentLabel(), before)
	}
}
