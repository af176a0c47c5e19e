package adapt

import (
	"fmt"
	"reflect"
	"testing"

	"astra/internal/profile"
)

// scriptedPrior serves canned plans per variable ID and records every call.
type scriptedPrior struct {
	plans       map[string]PriorPlan
	observed    []string
	planCalls   int
	invalidated int
}

func (p *scriptedPrior) Plan(ctx, varID string, labels []string) PriorPlan {
	p.planCalls++
	return p.plans[varID]
}

func (p *scriptedPrior) Observe(ctx, varID, label string, us float64) {
	p.observed = append(p.observed, fmt.Sprintf("%s#%s=%s:%g", ctx, varID, label, us))
}

func (p *scriptedPrior) Invalidate() { p.invalidated++ }

// costs drives a single leaf var with fixed per-choice costs.
func leafCosts(v *Var, byChoice []float64) func() map[string]float64 {
	return func() map[string]float64 {
		return map[string]float64{v.ID: byChoice[v.Current()]}
	}
}

func TestPriorRankOrderFollowed(t *testing.T) {
	v := NewVar("v", "a", "b", "c")
	prior := &scriptedPrior{plans: map[string]PriorPlan{
		"v": {Order: []int{2, 0, 1}},
	}}
	e := NewExplorerPrior(LeafNode(v), profile.NewIndex(), "", prior)
	var measured []int
	for !e.Done() {
		if v.Recording() {
			measured = append(measured, v.Current())
		}
		e.Observe(leafCosts(v, []float64{5, 1, 9})())
		e.Advance()
	}
	if want := []int{2, 0, 1}; !reflect.DeepEqual(measured, want) {
		t.Fatalf("measured order %v, want %v", measured, want)
	}
	// Measurement still decides: choice 1 (cost 1) wins despite rank 2.
	if !v.Frozen() || v.Current() != 1 {
		t.Fatalf("frozen=%v choice=%d, want best 1", v.Frozen(), v.Current())
	}
	st := e.PriorStats()
	if st.Hits != 0 || st.Misses != 1 || st.RankInversions != 2 {
		t.Fatalf("stats = %+v, want miss with rank inversion 2", st)
	}
}

func TestPriorPruningSkipsCandidates(t *testing.T) {
	v := NewVar("v", "a", "b", "c", "d")
	prior := &scriptedPrior{plans: map[string]PriorPlan{
		"v": {Order: []int{1, 0, 2, 3}, Pruned: []bool{false, false, true, true}},
	}}
	ix := profile.NewIndex()
	e := NewExplorerPrior(LeafNode(v), ix, "", prior)
	trials := drive(t, e, leafCosts(v, []float64{4, 2, 1, 1}), 50)
	// Only the two unpruned candidates were measured.
	if trials > 3 {
		t.Fatalf("pruned exploration took %d trials, want <= 3", trials)
	}
	for c, want := range []bool{true, true, false, false} {
		if ix.Has(v.KeyFor(c)) != want {
			t.Fatalf("choice %d measured=%v, want %v", c, ix.Has(v.KeyFor(c)), want)
		}
	}
	// Best of the measured set wins — the pruned true-best (cost 1) is
	// simply absent, and the prior's top rank (choice 1) is the hit.
	if v.Current() != 1 {
		t.Fatalf("froze at %d, want 1", v.Current())
	}
	st := e.PriorStats()
	if st.Hits != 1 || st.Misses != 0 || st.Pruned != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 pruned", st)
	}
}

func TestPrunedChoicesAudit(t *testing.T) {
	v := NewVar("v", "a", "b", "c", "d")
	prior := &scriptedPrior{plans: map[string]PriorPlan{
		"v": {Order: []int{1, 0, 2, 3}, Pruned: []bool{false, false, true, true}},
	}}
	e := NewExplorerPrior(LeafNode(v), profile.NewIndex(), "", prior)
	drive(t, e, leafCosts(v, []float64{4, 2, 1, 1}), 50)
	if got, want := e.PrunedChoices(), []string{"v=c", "v=d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PrunedChoices = %v, want %v", got, want)
	}

	// No prior: the audit trail stays empty through a full exploration.
	v2 := NewVar("v", "a", "b")
	e2 := NewExplorer(LeafNode(v2), profile.NewIndex())
	drive(t, e2, leafCosts(v2, []float64{2, 1}), 50)
	if got := e2.PrunedChoices(); len(got) != 0 {
		t.Fatalf("prior-free audit trail = %v, want empty", got)
	}
}

func TestPriorMalformedPlansDiscarded(t *testing.T) {
	bad := []PriorPlan{
		{Order: []int{0, 1}},                                      // wrong length
		{Order: []int{0, 0, 2}},                                   // duplicate
		{Order: []int{0, 1, 3}},                                   // out of range
		{Order: []int{0, 1, 2}, Pruned: []bool{true}},             // pruned length
		{Order: []int{0, 1, 2}, Pruned: []bool{true, true, true}}, // all pruned
		{Pruned: []bool{true, true, true}},                        // all pruned, no order
	}
	for i, plan := range bad {
		v := NewVar("v", "a", "b", "c")
		prior := &scriptedPrior{plans: map[string]PriorPlan{"v": plan}}
		ix := profile.NewIndex()
		e := NewExplorerPrior(LeafNode(v), ix, "", prior)
		drive(t, e, leafCosts(v, []float64{3, 1, 2}), 50)
		// Discarded wholesale: every candidate measured, best frozen.
		for c := range v.Labels {
			if !ix.Has(v.KeyFor(c)) {
				t.Fatalf("plan %d: choice %d not measured after malformed plan", i, c)
			}
		}
		if v.Current() != 1 {
			t.Fatalf("plan %d: froze at %d, want 1", i, v.Current())
		}
		if st := e.PriorStats(); st.Pruned != 0 {
			t.Fatalf("plan %d: pruned count %d from discarded plan", i, st.Pruned)
		}
	}
}

func TestPriorObserveForwarding(t *testing.T) {
	v := NewVar("v", "a", "b")
	prior := &scriptedPrior{}
	e := NewExplorerPrior(LeafNode(v), profile.NewIndex(), "base", prior)
	drive(t, e, leafCosts(v, []float64{7, 3}), 50)
	want := []string{"base#v=a:7", "base#v=b:3"}
	if !reflect.DeepEqual(prior.observed, want) {
		t.Fatalf("observed %v, want %v", prior.observed, want)
	}
}

func TestPriorPlanCachedPerContext(t *testing.T) {
	v := NewVar("v", "a", "b", "c")
	prior := &scriptedPrior{plans: map[string]PriorPlan{"v": {Order: []int{1, 0, 2}}}}
	e := NewExplorerPrior(LeafNode(v), profile.NewIndex(), "", prior)
	drive(t, e, leafCosts(v, []float64{2, 1, 3}), 50)
	if prior.planCalls != 1 {
		t.Fatalf("Plan called %d times for one (var, context), want 1", prior.planCalls)
	}
}

func TestThawInvalidatesPlansAndReplans(t *testing.T) {
	v := NewVar("v", "a", "b")
	prior := &scriptedPrior{plans: map[string]PriorPlan{"v": {Order: []int{1, 0}}}}
	e := NewExplorerPrior(LeafNode(v), profile.NewIndex(), "", prior)
	drive(t, e, leafCosts(v, []float64{5, 2}), 50)
	calls := prior.planCalls
	e.Thaw()
	if prior.invalidated != 1 {
		t.Fatalf("Thaw invalidated %d times, want 1", prior.invalidated)
	}
	drive(t, e, leafCosts(v, []float64{1, 2}), 50)
	if prior.planCalls <= calls {
		t.Fatalf("no re-plan after thaw (calls %d -> %d)", calls, prior.planCalls)
	}
	// Post-drift re-measurement decides fresh: choice 0 now wins.
	if v.Current() != 0 {
		t.Fatalf("post-thaw froze at %d, want 0", v.Current())
	}
}

// TestZeroPlanIdenticalToNoPrior pins the train-only guarantee: a prior that
// returns only zero plans must not perturb exploration at all.
func TestZeroPlanIdenticalToNoPrior(t *testing.T) {
	build := func() (*Tree, []*Var, func() map[string]float64) {
		a := NewVar("a", "0", "1", "2")
		b := NewVar("b", "0", "1")
		c := NewVar("c", "0", "1")
		tree := NewNode("root", Prefix,
			LeafNode(a),
			NewNode("ex", Exhaustive, LeafNode(b), LeafNode(c)),
		)
		metrics := func() map[string]float64 {
			m := map[string]float64{}
			m["a"] = []float64{3, 1, 2}[a.Current()]
			joint := 10.0
			if b.Current() == 1 && c.Current() == 0 {
				joint = 2
			}
			m["ex"] = joint
			return m
		}
		return tree, []*Var{a, b, c}, metrics
	}

	treeA, varsA, metricsA := build()
	ea := NewExplorer(treeA, profile.NewIndex())
	trialsA := drive(t, ea, metricsA, 100)

	treeB, varsB, metricsB := build()
	eb := NewExplorerPrior(treeB, profile.NewIndex(), "", &scriptedPrior{})
	trialsB := drive(t, eb, metricsB, 100)

	if trialsA != trialsB {
		t.Fatalf("zero-plan prior changed trial count: %d vs %d", trialsA, trialsB)
	}
	for i := range varsA {
		if varsA[i].Current() != varsB[i].Current() {
			t.Fatalf("var %s froze differently: %d vs %d", varsA[i].ID, varsA[i].Current(), varsB[i].Current())
		}
	}
	if st := eb.PriorStats(); st != (PriorStats{}) {
		t.Fatalf("zero-plan prior accrued stats: %+v", st)
	}
}

func TestPriorExhaustiveCompositePlan(t *testing.T) {
	// The exhaustive composite var is planned like a leaf: its labels are
	// the joint tuples. Prune the known-bad half.
	a := NewVar("a", "0", "1")
	b := NewVar("b", "0", "1")
	tree := NewNode("ex", Exhaustive, LeafNode(a), LeafNode(b))
	// Labels of the composite: "a=0,b=0", "a=0,b=1", "a=1,b=0", "a=1,b=1".
	prior := &scriptedPrior{plans: map[string]PriorPlan{
		"ex": {Order: []int{3, 2, 1, 0}, Pruned: []bool{true, false, false, false}},
	}}
	ix := profile.NewIndex()
	e := NewExplorerPrior(tree, ix, "", prior)
	trials := drive(t, e, func() map[string]float64 {
		cost := 10.0
		if a.Current() == 1 && b.Current() == 1 {
			cost = 1
		}
		return map[string]float64{"ex": cost}
	}, 50)
	if trials > 4 {
		t.Fatalf("pruned exhaustive took %d trials", trials)
	}
	if a.Current() != 1 || b.Current() != 1 {
		t.Fatalf("froze at a=%d b=%d, want 1/1", a.Current(), b.Current())
	}
	st := e.PriorStats()
	if st.Pruned != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 pruned / 1 hit", st)
	}
}
