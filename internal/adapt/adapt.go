// Package adapt implements Astra's adaptive variables and the update tree
// that drives online exploration (§4.4.2 and §4.5 of the paper).
//
// An adaptive variable is the unit of adaptation: a named choice among a
// small set of labelled options (which GEMM library, which fusion chunk
// size, which stream for a kernel, which allocation strategy). Variables
// are arranged in an update tree whose internal nodes are annotated with an
// exploration mode:
//
//   - Parallel: children explore simultaneously — fine-grained profiling
//     makes their measurements independent, so the state space is additive
//     (§4.5.1).
//   - Prefix: children explore one after another; earlier siblings freeze
//     at their best before a later sibling starts, and their frozen labels
//     become part of the later sibling's profile context (§4.5.4).
//   - Exhaustive: the children (which must be leaves) are explored as a
//     single composite variable over the cartesian product of their
//     choices — used inside epochs where stream assignment is
//     history-sensitive (§4.5.3).
//   - Fork: the first child is a policy variable (e.g. the allocation
//     strategy) whose current label prefixes the context of the whole
//     subtree; each policy choice is explored to completion, then validated
//     end-to-end, before the next policy choice begins (§4.5.2).
//
// The Explorer walks the tree once per mini-batch trial: it decides the
// configuration to run, the custom-wirer executes and measures it, and
// Observe feeds the measurements back into the profile index under
// context-mangled keys.
package adapt

import (
	"fmt"
	"strings"

	"astra/internal/profile"
)

// Var is an adaptive variable: the paper's initialize / iterate /
// get_profile_value unit. The explorer owns iteration; callers read
// Current to build the schedule for the next trial.
type Var struct {
	ID     string
	Labels []string

	current   int
	frozen    bool
	frozenCtx string
	ctx       string
	record    bool // set by the explorer walk: measure this var this trial

	// Per-context key cache: the explorer probes every choice's profile key
	// on each walk, and rebuilding the mangled strings each trial dominated
	// the setup allocations. The cache is invalidated by context change.
	keyCtx string
	keys   []profile.Key

	// Per-context prior-plan cache, mirroring the key cache: the explorer
	// asks the attached Prior for a visit plan once per (variable, context)
	// and reuses it across trials. planOK distinguishes "no plan yet" from
	// a cached zero plan; Explorer.invalidatePlans clears it on thaw.
	planCtx string
	plan    PriorPlan
	planOK  bool
}

// NewVar builds a variable with the given choice labels.
func NewVar(id string, labels ...string) *Var {
	if id == "" || len(labels) == 0 {
		panic("adapt: variable needs an ID and at least one label")
	}
	return &Var{ID: id, Labels: labels}
}

// Current returns the active choice index.
func (v *Var) Current() int { return v.current }

// SetChoice overrides the active choice directly, bypassing the explorer.
// External tuners (e.g. the random-mutation ablation baseline) use it; the
// explorer's own walk always goes through setup.
func (v *Var) SetChoice(c int) {
	if c < 0 || c >= len(v.Labels) {
		panic(fmt.Sprintf("adapt: choice %d of %d for %s", c, len(v.Labels), v.ID))
	}
	v.current = c
}

// CurrentLabel returns the active choice label.
func (v *Var) CurrentLabel() string { return v.Labels[v.current] }

// Context returns the profile-context prefix the variable was last walked
// under; profile keys for its measurements use it.
func (v *Var) Context() string { return v.ctx }

// Frozen reports whether the variable has settled on its best choice for
// the current context.
func (v *Var) Frozen() bool { return v.frozen && v.frozenCtx == v.ctx }

// Initialize resets the variable to its default choice (§4.4.2).
func (v *Var) Initialize() {
	v.current = 0
	v.frozen = false
	v.frozenCtx = ""
	v.planOK = false
	v.plan = PriorPlan{}
}

// Key returns the profile key for the variable's current (context, choice).
//
//astra:hotpath
func (v *Var) Key() profile.Key {
	// lint:ok escape inlined KeyFor: key cache (re)build, once per context change
	return v.KeyFor(v.current)
}

// KeyFor returns the profile key of choice c under the variable's current
// context, from a per-context cache: the keys for all of a variable's
// choices are built once per context and reused across trials.
//
//astra:hotpath
func (v *Var) KeyFor(c int) profile.Key {
	if v.keyCtx != v.ctx || len(v.keys) != len(v.Labels) {
		if cap(v.keys) < len(v.Labels) {
			// lint:ok escape key cache (re)build, once per context change
			v.keys = make([]profile.Key, len(v.Labels))
		} else {
			v.keys = v.keys[:len(v.Labels)]
		}
		for i, l := range v.Labels {
			// lint:ok escape key cache (re)build, once per context change
			v.keys[i] = profile.K(v.ctx, v.ID, l)
		}
		v.keyCtx = v.ctx
	}
	return v.keys[c]
}

// Mode annotates internal tree nodes.
type Mode int

// Exploration modes.
const (
	Parallel Mode = iota
	Prefix
	Exhaustive
	Fork
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Parallel:
		return "parallel"
	case Prefix:
		return "prefix"
	case Exhaustive:
		return "exhaustive"
	case Fork:
		return "fork"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Tree is an update-tree node: either a leaf holding a variable, or an
// internal node with a mode and children.
type Tree struct {
	Title    string
	Mode     Mode
	Var      *Var    // non-nil for leaves
	Children []*Tree // internal nodes

	comp *Var // synthetic composite variable for Exhaustive nodes

	// vars caches Vars: the tree's shape is fixed once built, and the
	// explorer walks it on every trial.
	vars []*Var
	// ctxs memoizes the context strings the explorer derives at this node
	// (see explorer.go); a context that did not change is the same string
	// from one trial to the next.
	ctxs []ctxMemo
}

// LeafNode wraps a variable as a leaf.
func LeafNode(v *Var) *Tree { return &Tree{Title: v.ID, Var: v} }

// NewNode builds an internal node.
func NewNode(title string, mode Mode, children ...*Tree) *Tree {
	if len(children) == 0 {
		panic("adapt: internal node needs children")
	}
	n := &Tree{Title: title, Mode: mode, Children: children}
	if mode == Exhaustive {
		for _, c := range children {
			if c.Var == nil {
				panic("adapt: exhaustive children must be leaves")
			}
		}
		n.comp = &Var{ID: title, Labels: tupleLabels(children)}
	}
	if mode == Fork {
		if len(children) != 2 || children[0].Var == nil {
			panic("adapt: fork needs a leaf policy child and one subtree child")
		}
	}
	return n
}

func tupleLabels(children []*Tree) []string {
	labels := []string{""}
	for _, c := range children {
		var next []string
		for _, prefix := range labels {
			for _, l := range c.Var.Labels {
				if prefix == "" {
					next = append(next, l)
				} else {
					next = append(next, prefix+","+l)
				}
			}
		}
		labels = next
	}
	return labels
}

// CompositeVar returns the synthetic variable of an Exhaustive node (nil
// for other nodes); the custom-wirer uses it to know when the node's epoch
// needs a measurement.
func (t *Tree) CompositeVar() *Var { return t.comp }

// Vars returns every variable in the subtree (composite variables of
// Exhaustive nodes included), in walk order. The slice is shared: callers
// must not modify it.
func (t *Tree) Vars() []*Var {
	if t.vars == nil {
		t.walkVars(&t.vars)
		t.vars = t.vars[:len(t.vars):len(t.vars)]
	}
	return t.vars
}

func (t *Tree) walkVars(out *[]*Var) {
	if t.Var != nil {
		*out = append(*out, t.Var)
		return
	}
	if t.comp != nil {
		*out = append(*out, t.comp)
	}
	for _, c := range t.Children {
		c.walkVars(out)
	}
}

// dropCaches releases the subtree's walk caches: every variable's key
// cache and every node's memoized contexts.
func (t *Tree) dropCaches() {
	for _, v := range t.Vars() {
		v.keys, v.keyCtx = nil, ""
	}
	t.dropContexts()
}

func (t *Tree) dropContexts() {
	t.ctxs = nil
	for _, c := range t.Children {
		c.dropContexts()
	}
}

// Initialize resets the whole subtree to default choices.
func (t *Tree) Initialize() {
	for _, v := range t.Vars() {
		v.Initialize()
	}
}

// Size returns the number of leaf variables (Exhaustive composites count
// once).
func (t *Tree) Size() int {
	if t.Var != nil {
		return 1
	}
	if t.Mode == Exhaustive {
		return 1
	}
	n := 0
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Render draws the tree as indented text (Figure 2's structure).
func (t *Tree) Render() string {
	var b strings.Builder
	t.render(&b, 0)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if t.Var != nil {
		fmt.Fprintf(b, "%s- %s [%d choices]\n", indent, t.Var.ID, len(t.Var.Labels))
		return
	}
	fmt.Fprintf(b, "%s+ %s (%s)\n", indent, t.Title, t.Mode)
	for _, c := range t.Children {
		c.render(b, depth+1)
	}
}
