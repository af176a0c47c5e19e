package adapt

import (
	"strings"
	"testing"

	"astra/internal/profile"
)

// drive runs the explorer against a synthetic cost model until convergence,
// returning the trial count. metrics(e) must return the per-variable
// measurements for the current configuration.
func drive(t *testing.T, e *Explorer, metrics func() map[string]float64, maxTrials int) int {
	t.Helper()
	for !e.Done() {
		if e.Trials() > maxTrials {
			t.Fatalf("exploration exceeded %d trials", maxTrials)
		}
		e.Observe(metrics())
		e.Advance()
	}
	return e.Trials()
}

func TestVarBasics(t *testing.T) {
	v := NewVar("v", "a", "b", "c")
	if v.Current() != 0 || v.CurrentLabel() != "a" {
		t.Fatal("fresh var not at default")
	}
	v.current = 2
	v.frozen = true
	v.Initialize()
	if v.Current() != 0 || v.Frozen() {
		t.Fatal("Initialize did not reset")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewVar accepted empty labels")
			}
		}()
		NewVar("x")
	}()
}

func TestParallelExplorationIsAdditive(t *testing.T) {
	// 5 independent variables x 3 choices: parallel exploration needs ~3
	// trials, not 3^5 (§4.5.1's worked example).
	ix := profile.NewIndex()
	vars := make([]*Var, 5)
	leaves := make([]*Tree, 5)
	for i := range vars {
		vars[i] = NewVar(string(rune('a'+i)), "c0", "c1", "c2")
		leaves[i] = LeafNode(vars[i])
	}
	best := []int{2, 0, 1, 2, 0}
	e := NewExplorerPrior(NewNode("root", Parallel, leaves...), ix, "", nil)
	trials := drive(t, e, func() map[string]float64 {
		m := map[string]float64{}
		for i, v := range vars {
			cost := 10.0
			if v.Current() == best[i] {
				cost = 1
			}
			m[v.ID] = cost + float64(i)
		}
		return m
	}, 50)
	if trials > 4 {
		t.Fatalf("parallel exploration took %d trials, want <= 4", trials)
	}
	for i, v := range vars {
		if !v.Frozen() || v.Current() != best[i] {
			t.Fatalf("var %d frozen=%v choice=%d, want best %d", i, v.Frozen(), v.Current(), best[i])
		}
	}
}

func TestExhaustiveFindsInteractingOptimum(t *testing.T) {
	// Two interacting variables: the best joint choice is not the best of
	// each in isolation — exhaustive mode must still find it.
	ix := profile.NewIndex()
	a := NewVar("a", "0", "1")
	b := NewVar("b", "0", "1")
	node := NewNode("epoch", Exhaustive, LeafNode(a), LeafNode(b))
	cost := map[[2]int]float64{
		{0, 0}: 5, {0, 1}: 4, {1, 0}: 4, {1, 1}: 1, // interaction: (1,1) wins
	}
	e := NewExplorerPrior(node, ix, "", nil)
	trials := drive(t, e, func() map[string]float64 {
		return map[string]float64{"epoch": cost[[2]int{a.Current(), b.Current()}]}
	}, 20)
	if trials != 4 {
		t.Fatalf("exhaustive over 2x2 took %d trials, want 4", trials)
	}
	if a.Current() != 1 || b.Current() != 1 {
		t.Fatalf("converged to (%d,%d), want (1,1)", a.Current(), b.Current())
	}
}

func TestExhaustiveRequiresLeaves(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("exhaustive accepted a subtree child")
		}
	}()
	inner := NewNode("p", Parallel, LeafNode(NewVar("x", "a")))
	NewNode("e", Exhaustive, inner)
}

func TestPrefixIsHistoryAware(t *testing.T) {
	// Child b's best depends on child a's frozen choice. Prefix order must
	// freeze a first and then find b's conditional best.
	ix := profile.NewIndex()
	a := NewVar("a", "0", "1")
	b := NewVar("b", "0", "1")
	node := NewNode("superepoch", Prefix, LeafNode(a), LeafNode(b))
	// a=1 is best alone. Given a=1, b=0 is best (b=1 would be best under
	// a=0 — the conditional structure).
	costA := []float64{10, 5}
	costB := map[[2]int]float64{{0, 0}: 9, {0, 1}: 3, {1, 0}: 2, {1, 1}: 6}
	e := NewExplorerPrior(node, ix, "", nil)
	drive(t, e, func() map[string]float64 {
		return map[string]float64{
			"a": costA[a.Current()],
			"b": costA[a.Current()] + costB[[2]int{a.Current(), b.Current()}],
		}
	}, 20)
	if a.Current() != 1 {
		t.Fatalf("a converged to %d, want 1", a.Current())
	}
	if b.Current() != 0 {
		t.Fatalf("b converged to %d, want 0 (conditional best under a=1)", b.Current())
	}
}

func TestPrefixIsAdditiveInChildren(t *testing.T) {
	// k children with c choices each: ~k*c trials, not c^k (§4.5.4).
	ix := profile.NewIndex()
	const k, c = 6, 4
	vars := make([]*Var, k)
	leaves := make([]*Tree, k)
	for i := range vars {
		labels := make([]string, c)
		for j := range labels {
			labels[j] = string(rune('0' + j))
		}
		vars[i] = NewVar(string(rune('a'+i)), labels...)
		leaves[i] = LeafNode(vars[i])
	}
	e := NewExplorerPrior(NewNode("se", Prefix, leaves...), ix, "", nil)
	trials := drive(t, e, func() map[string]float64 {
		m := map[string]float64{}
		for _, v := range vars {
			m[v.ID] = float64(1 + (v.Current()+3)%c)
		}
		return m
	}, 200)
	if trials > k*c+k {
		t.Fatalf("prefix exploration took %d trials, want <= %d", trials, k*c+k)
	}
}

func TestForkExploresSubtreePerPolicyAndValidates(t *testing.T) {
	// Policy (allocation strategy) with 2 choices; subtree has one var with
	// 2 choices whose cost depends on the policy. Policy p1 enables the
	// globally best config even though p0's default looks fine.
	ix := profile.NewIndex()
	policy := NewVar("alloc", "p0", "p1")
	x := NewVar("x", "x0", "x1")
	tree := NewNode("root", Fork, LeafNode(policy), LeafNode(x))
	cost := map[[2]int]float64{
		{0, 0}: 5, {0, 1}: 4, // under p0 the best is 4
		{1, 0}: 6, {1, 1}: 2, // under p1 the best is 2 — global winner
	}
	e := NewExplorerPrior(tree, ix, "", nil)
	trials := drive(t, e, func() map[string]float64 {
		c := cost[[2]int{policy.Current(), x.Current()}]
		return map[string]float64{"x": c, "alloc": c}
	}, 50)
	if policy.Current() != 1 {
		t.Fatalf("policy converged to %s", policy.CurrentLabel())
	}
	if x.Current() != 1 {
		t.Fatalf("x converged to %s", x.CurrentLabel())
	}
	// Expected trial budget: per policy, 2 subtree trials + 1 validation.
	if trials > 8 {
		t.Fatalf("fork took %d trials", trials)
	}
	// Context mangling: x must have been measured separately per policy.
	if _, ok := ix.Lookup(profile.K("/alloc=p0", "x", "x0")); !ok {
		t.Fatal("missing x measurement under p0 context")
	}
	if _, ok := ix.Lookup(profile.K("/alloc=p1", "x", "x0")); !ok {
		t.Fatal("missing x measurement under p1 context")
	}
}

func TestForkValidationUsesBestSubConfig(t *testing.T) {
	// The end-to-end validation trial for each policy must run with the
	// subtree frozen at its best choice under that policy.
	ix := profile.NewIndex()
	policy := NewVar("alloc", "p0", "p1")
	x := NewVar("x", "x0", "x1")
	tree := NewNode("root", Fork, LeafNode(policy), LeafNode(x))
	e := NewExplorerPrior(tree, ix, "", nil)
	sawValidation := map[string]int{}
	drive(t, e, func() map[string]float64 {
		cost := map[[2]int]float64{{0, 0}: 5, {0, 1}: 1, {1, 0}: 3, {1, 1}: 7}[[2]int{policy.Current(), x.Current()}]
		if policy.Recording() {
			sawValidation[policy.CurrentLabel()] = x.Current()
		}
		return map[string]float64{"x": cost, "alloc": cost}
	}, 50)
	if sawValidation["p0"] != 1 {
		t.Fatalf("p0 validated with x=%d, want best x=1", sawValidation["p0"])
	}
	if sawValidation["p1"] != 0 {
		t.Fatalf("p1 validated with x=%d, want best x=0", sawValidation["p1"])
	}
	if policy.CurrentLabel() != "p0" {
		t.Fatalf("policy = %s, want p0 (validated 1 vs 3)", policy.CurrentLabel())
	}
}

func TestNestedTreeConverges(t *testing.T) {
	// A realistic composite: Fork(alloc, Parallel(fusion vars, Prefix(epochs...))).
	ix := profile.NewIndex()
	alloc := NewVar("alloc", "a0", "a1")
	f1 := NewVar("fuse1", "1", "2", "4")
	f2 := NewVar("fuse2", "1", "2", "4")
	e1a := NewVar("e1k1", "s0", "s1")
	e1b := NewVar("e1k2", "s0", "s1")
	e2 := NewVar("e2k1", "s0", "s1")
	tree := NewNode("root", Fork,
		LeafNode(alloc),
		NewNode("body", Parallel,
			LeafNode(f1),
			LeafNode(f2),
			NewNode("se0", Prefix,
				NewNode("epoch1", Exhaustive, LeafNode(e1a), LeafNode(e1b)),
				LeafNode(e2),
			),
		),
	)
	e := NewExplorerPrior(tree, ix, "", nil)
	allVars := []*Var{f1, f2, e2}
	trials := drive(t, e, func() map[string]float64 {
		m := map[string]float64{}
		base := 1.0
		if alloc.Current() == 1 {
			base = 0.5
		}
		for _, v := range allVars {
			m[v.ID] = base * float64(1+v.Current())
		}
		m["epoch1"] = base * float64(1+e1a.Current()+e1b.Current())
		m["alloc"] = base * 10
		return m
	}, 200)
	if alloc.CurrentLabel() != "a1" {
		t.Fatalf("alloc = %s", alloc.CurrentLabel())
	}
	if trials > 60 {
		t.Fatalf("nested exploration took %d trials", trials)
	}
	for _, v := range e.Vars() {
		if !v.Frozen() {
			t.Fatalf("var %s not frozen after convergence", v.ID)
		}
	}
}

func TestStuckExplorationSurfacesStickyError(t *testing.T) {
	// A custom-wirer that never measures the active variables must not
	// crash the process: Advance reports a sticky error, Done turns true so
	// session loops terminate, and the variables stay unvalidated.
	ix := profile.NewIndex()
	v := NewVar("v", "a", "b")
	e := NewExplorerPrior(LeafNode(v), ix, "", nil)
	for i := 0; i < 100; i++ {
		e.Observe(map[string]float64{}) // never measures v
		if !e.Advance() {
			break
		}
	}
	if e.Err() == nil {
		t.Fatal("stuck exploration produced no error")
	}
	if !e.Done() {
		t.Fatal("errored exploration must report Done so session loops exit")
	}
	if e.Advance() {
		t.Fatal("Advance after sticky error kept going")
	}
	if !strings.Contains(e.Err().Error(), "stuck") {
		t.Fatalf("unhelpful error: %v", e.Err())
	}
}

func TestPrefixContextAccumulatesAllEarlierSiblings(t *testing.T) {
	// With ≥3 prefix children, the context of child c must depend on the
	// frozen choices of *all* earlier siblings. Child b has a single choice,
	// so its digest never changes: rebuilding c's context from b alone
	// (the old bug) would make c blind to a's frozen choice.
	run := func(costA []float64) (string, *Var) {
		ix := profile.NewIndex()
		a := NewVar("a", "0", "1")
		b := NewVar("b", "only")
		c := NewVar("c", "0", "1")
		e := NewExplorerPrior(NewNode("se", Prefix, LeafNode(a), LeafNode(b), LeafNode(c)), ix, "", nil)
		drive(t, e, func() map[string]float64 {
			return map[string]float64{
				"a": costA[a.Current()],
				"b": 1,
				"c": float64(1 + c.Current()),
			}
		}, 50)
		return c.Context(), a
	}
	ctxA0, a0 := run([]float64{1, 2}) // a freezes to 0
	ctxA1, a1 := run([]float64{2, 1}) // a freezes to 1
	if a0.Current() != 0 || a1.Current() != 1 {
		t.Fatalf("setup broken: a froze to %d and %d", a0.Current(), a1.Current())
	}
	if ctxA0 == ctxA1 {
		t.Fatalf("c's context %q ignores a's frozen choice (b's digest repeats)", ctxA0)
	}
}

func TestThawReExploresWithFreshMeasurements(t *testing.T) {
	// Converge, then shift the cost model (a drifting device) and Thaw: the
	// explorer must evict the stale measurements, re-explore, and land on
	// the new best.
	ix := profile.NewIndex()
	a := NewVar("a", "0", "1")
	b := NewVar("b", "0", "1")
	e := NewExplorerPrior(NewNode("root", Parallel, LeafNode(a), LeafNode(b)), ix, "", nil)
	cost := map[string][]float64{"a": {1, 5}, "b": {5, 1}}
	metrics := func() map[string]float64 {
		return map[string]float64{"a": cost["a"][a.Current()], "b": cost["b"][b.Current()]}
	}
	drive(t, e, metrics, 20)
	if a.Current() != 0 || b.Current() != 1 {
		t.Fatalf("pre-drift converged to (%d,%d)", a.Current(), b.Current())
	}

	cost["a"] = []float64{5, 1} // the device drifted: a's best flipped
	if evicted := e.Thaw("a"); evicted == 0 {
		t.Fatal("Thaw evicted nothing")
	}
	if e.Done() {
		t.Fatal("thawed explorer claims convergence")
	}
	if b.Frozen() != true {
		t.Fatal("untouched variable b lost its frozen state")
	}
	drive(t, e, metrics, 40)
	if a.Current() != 1 {
		t.Fatalf("post-drift a = %d, want 1", a.Current())
	}
	if e.Reexplorations() != 1 {
		t.Fatalf("Reexplorations = %d", e.Reexplorations())
	}

	// Thaw with no arguments thaws everything.
	if e.Thaw() == 0 {
		t.Fatal("full thaw evicted nothing")
	}
	if frozen, _ := e.FrozenCount(); frozen != 0 {
		t.Fatalf("%d vars still frozen after full thaw", frozen)
	}
	drive(t, e, metrics, 40)
	if !e.Done() || e.Err() != nil {
		t.Fatal("full re-exploration did not reconverge")
	}
}

func TestMultiSampleKeepsRecordingUntilSatisfied(t *testing.T) {
	// With three samples per key the explorer must hold each choice
	// active for three trials and freeze on the better *mean*, not on a
	// lucky first sample.
	ix := profile.NewIndex()
	ix.SetSamples(3)
	v := NewVar("v", "good", "bad")
	e := NewExplorerPrior(LeafNode(v), ix, "", nil)
	// good: noisy around 10 with one lucky-looking 6; bad: consistent 9.
	seq := map[string][]float64{
		"good": {14, 10, 12},
		"bad":  {9, 9, 9},
	}
	seen := map[string]int{}
	drive(t, e, func() map[string]float64 {
		l := v.CurrentLabel()
		s := seq[l][seen[l]%3]
		seen[l]++
		return map[string]float64{"v": s}
	}, 20)
	if got := ix.SampleCount(profile.K("", "v", "good")); got != 3 {
		t.Fatalf("good sampled %d times, want 3", got)
	}
	if got := ix.SampleCount(profile.K("", "v", "bad")); got != 3 {
		t.Fatalf("bad sampled %d times, want 3", got)
	}
	if v.CurrentLabel() != "bad" {
		t.Fatalf("froze on %s; mean of 'bad' (9) beats mean of 'good' (12)", v.CurrentLabel())
	}
	if e.Trials() != 6 {
		t.Fatalf("took %d trials, want 6 (2 choices x 3 samples)", e.Trials())
	}
}

func TestTreeRenderAndSize(t *testing.T) {
	tree := NewNode("root", Parallel,
		LeafNode(NewVar("a", "x", "y")),
		NewNode("e", Exhaustive, LeafNode(NewVar("b", "x")), LeafNode(NewVar("c", "x"))),
	)
	r := tree.Render()
	for _, want := range []string{"+ root (parallel)", "- a [2 choices]", "+ e (exhaustive)"} {
		if !strings.Contains(r, want) {
			t.Fatalf("Render missing %q:\n%s", want, r)
		}
	}
	if tree.Size() != 2 { // leaf a + exhaustive composite
		t.Fatalf("Size = %d", tree.Size())
	}
}

func TestSingleChoiceVarsConvergeImmediately(t *testing.T) {
	ix := profile.NewIndex()
	v := NewVar("only", "theone")
	e := NewExplorerPrior(LeafNode(v), ix, "", nil)
	trials := drive(t, e, func() map[string]float64 {
		return map[string]float64{"only": 1}
	}, 5)
	if trials > 1 {
		t.Fatalf("single choice took %d trials", trials)
	}
}

func TestModeString(t *testing.T) {
	if Parallel.String() != "parallel" || Prefix.String() != "prefix" ||
		Exhaustive.String() != "exhaustive" || Fork.String() != "fork" {
		t.Fatal("mode names wrong")
	}
}

// TestDoneExplorerDropsCaches: while exploring, the walk caches every
// variable's profile keys and each node's derived contexts; once done, the
// explorer releases both. A thaw rebuilds them on demand, re-converges to
// the same bests and releases them again.
func TestDoneExplorerDropsCaches(t *testing.T) {
	ix := profile.NewIndex()
	alloc := NewVar("alloc", "a0", "a1")
	f1 := NewVar("fuse1", "1", "2", "4")
	e1a, e1b := NewVar("e1k1", "s0", "s1"), NewVar("e1k2", "s0", "s1")
	e2 := NewVar("e2k1", "s0", "s1")
	tree := NewNode("root", Fork,
		LeafNode(alloc),
		NewNode("body", Parallel,
			LeafNode(f1),
			NewNode("se0", Prefix,
				NewNode("epoch1", Exhaustive, LeafNode(e1a), LeafNode(e1b)),
				LeafNode(e2),
			),
		),
	)
	e := NewExplorerPrior(tree, ix, "job:test", nil)
	metrics := func() map[string]float64 {
		base := 1.0 + float64(alloc.Current())
		return map[string]float64{
			"alloc": base * 10, "fuse1": base * float64(3-f1.Current()),
			"epoch1": base * float64(1+e1a.Current()+e1b.Current()), "e2k1": base * float64(2-e2.Current()),
		}
	}
	var nodes []*Tree
	var walk func(*Tree)
	walk = func(n *Tree) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	cached := func() (keys, ctxs int) {
		for _, v := range e.Vars() {
			if v.keys != nil || v.keyCtx != "" {
				keys++
			}
		}
		for _, n := range nodes {
			if n.ctxs != nil {
				ctxs++
			}
		}
		return keys, ctxs
	}
	if keys, ctxs := cached(); keys == 0 || ctxs == 0 {
		t.Fatalf("an exploring walk cached %d key sets and %d context memos", keys, ctxs)
	}
	drive(t, e, metrics, 200)
	if keys, ctxs := cached(); keys != 0 || ctxs != 0 {
		t.Fatalf("a done explorer holds %d key caches and %d context memos", keys, ctxs)
	}
	var bests []int
	for _, v := range e.Vars() {
		bests = append(bests, v.Current())
	}
	if e.Thaw() == 0 {
		t.Fatal("the thaw evicted nothing")
	}
	drive(t, e, metrics, 400)
	for i, v := range e.Vars() {
		if v.Current() != bests[i] {
			t.Fatalf("%s re-froze at %s, first at %s", v.ID, v.CurrentLabel(), v.Labels[bests[i]])
		}
	}
	if keys, ctxs := cached(); keys != 0 || ctxs != 0 {
		t.Fatalf("the re-converged explorer holds %d key caches and %d context memos", keys, ctxs)
	}
}
