package enumerate

import (
	"testing"

	"astra/internal/graph"
	"astra/internal/models"
)

func tinyPlan(t *testing.T, name string, preset Preset) (*models.Model, *Plan) {
	t.Helper()
	build, ok := models.Get(name)
	if !ok {
		t.Fatalf("model %q", name)
	}
	m := build(models.TinyConfig(name, 2))
	return m, Enumerate(m.G, PresetOptions(preset))
}

func TestPaperExampleSharedArgFusion(t *testing.T) {
	// §4.4.1: "%10 = mm(%1, %5); %11 = mm(%1, %6)" — two mm sharing %1
	// with no dependence between %5 and %6 fuse into one operation.
	g := graph.New()
	b := graph.NewBuilder(g)
	x := g.Input("x", 4, 8) // %1
	w1 := g.Param("w1", graph.Zeros(8, 16))
	w2 := g.Param("w2", graph.Zeros(8, 16))
	tgt := g.Input("t", 4, 1)
	h := b.Add(b.MatMul(x, w1), b.MatMul(x, w2))
	b.CrossEntropy(b.MatMul(h, g.Param("wo", graph.Zeros(16, 3))), tgt)
	p := Enumerate(g, PresetOptions(PresetF))
	if len(p.Groups) == 0 {
		t.Fatal("no fusion groups found")
	}
	// Ladder mining runs first and absorbs the add too; either way the two
	// GEMMs sharing x must land in one group with operands {w1, w2}.
	var found *FusionGroup
	for _, grp := range p.Groups {
		if len(grp.GEMMs) == 2 && grp.Operands[0] == w1 && grp.Operands[1] == w2 {
			found = grp
		}
	}
	if found == nil {
		t.Fatalf("GEMMs sharing x not grouped; groups: %+v", p.Groups)
	}
}

func TestDependentGEMMsNotFused(t *testing.T) {
	// mm(x, mm(x, w)) — the inner feeds the outer; despite sharing x they
	// must not fuse.
	g := graph.New()
	b := graph.NewBuilder(g)
	x := g.Input("x", 4, 4)
	w := g.Param("w", graph.Zeros(4, 4))
	tgt := g.Input("t", 4, 1)
	inner := b.MatMul(x, w)
	outer := b.MatMul(x, inner)
	b.CrossEntropy(outer, tgt)
	p := Enumerate(g, PresetOptions(PresetF))
	for _, grp := range p.Groups {
		if grp.Kind == SharedLeft && grp.Shared == x {
			t.Fatalf("dependent GEMMs fused: %+v", grp)
		}
	}
}

func TestLadderDetection(t *testing.T) {
	// %12 = add(mm(%1,%5), mm(%2,%6)) — the GEMM-accumulator ladder.
	g := graph.New()
	b := graph.NewBuilder(g)
	a1 := g.Input("a1", 4, 8)
	a2 := g.Input("a2", 4, 8)
	w1 := g.Param("w1", graph.Zeros(8, 8))
	w2 := g.Param("w2", graph.Zeros(8, 8))
	tgt := g.Input("t", 4, 1)
	sum := b.Add(b.MatMul(a1, w1), b.MatMul(a2, w2))
	b.CrossEntropy(sum, tgt)
	p := Enumerate(g, PresetOptions(PresetF))
	var ladder *FusionGroup
	for _, grp := range p.Groups {
		if grp.Kind == Ladder {
			ladder = grp
		}
	}
	if ladder == nil {
		t.Fatal("ladder not detected")
	}
	if len(ladder.GEMMs) != 2 || len(ladder.Adds) != 1 {
		t.Fatalf("ladder has %d GEMMs, %d adds", len(ladder.GEMMs), len(ladder.Adds))
	}
}

func TestLadderNotDetectedWhenIntermediateShared(t *testing.T) {
	// If a GEMM output is used elsewhere, the ladder cannot absorb it
	// ("if %10 and %11 are not used elsewhere").
	g := graph.New()
	b := graph.NewBuilder(g)
	a1 := g.Input("a1", 4, 8)
	w1 := g.Param("w1", graph.Zeros(8, 8))
	w2 := g.Param("w2", graph.Zeros(8, 8))
	tgt := g.Input("t", 4, 1)
	m1 := b.MatMul(a1, w1)
	m2 := b.MatMul(a1, w2) // shares a1: may fuse as shared-left instead
	sum := b.Add(m1, m2)
	extra := b.Tanh(m1) // m1 used elsewhere: no ladder
	b.CrossEntropy(b.Add(sum, extra), tgt)
	p := Enumerate(g, PresetOptions(PresetF))
	for _, grp := range p.Groups {
		if grp.Kind == Ladder {
			t.Fatal("ladder detected despite shared intermediate")
		}
	}
}

func TestViewTransposes(t *testing.T) {
	// Transposes feeding only GEMMs are folded into operand flags and must
	// not appear as schedule units.
	m, p := tinyPlan(t, "stackedlstm", PresetF)
	transposeUnits := 0
	for _, u := range p.Units {
		for _, n := range u.Nodes {
			if n.Op == graph.OpTranspose {
				transposeUnits++
			}
		}
	}
	total := 0
	for _, n := range m.G.Nodes {
		if n.Op == graph.OpTranspose {
			total++
		}
	}
	if total == 0 {
		t.Fatal("expected transposes in backward pass")
	}
	if transposeUnits != 0 {
		t.Fatalf("%d of %d transposes still scheduled as kernels", transposeUnits, total)
	}
}

func TestElementwiseChains(t *testing.T) {
	_, p := tinyPlan(t, "milstm", PresetF)
	chains := 0
	for _, u := range p.Units {
		if u.Kind == UnitEWChain {
			chains++
			if len(u.Nodes) < 2 {
				t.Fatalf("chain with %d nodes", len(u.Nodes))
			}
			for _, n := range u.Nodes {
				if !n.Op.IsElementwise() {
					t.Fatalf("non-elementwise %v in chain", n.Op)
				}
			}
		}
	}
	if chains == 0 {
		t.Fatal("no elementwise chains found in MI-LSTM")
	}
}

func TestEveryNonViewNodeScheduledExactlyOnce(t *testing.T) {
	for _, name := range models.Names() {
		m, p := tinyPlan(t, name, PresetAll)
		count := map[*graph.Node]int{}
		for _, u := range p.Units {
			for _, n := range u.Nodes {
				count[n]++
			}
		}
		views := 0
		for _, n := range m.G.Nodes {
			switch count[n] {
			case 1:
			case 0:
				if n.Op != graph.OpTranspose {
					t.Fatalf("%s: node %v not scheduled", name, n)
				}
				views++
			default:
				t.Fatalf("%s: node %v scheduled %d times", name, n, count[n])
			}
		}
		if views == 0 {
			t.Fatalf("%s: no view transposes (expected in backward)", name)
		}
	}
}

func TestUnitDepsAreAcyclicAndTopological(t *testing.T) {
	for _, name := range models.Names() {
		_, p := tinyPlan(t, name, PresetAll)
		pos := map[*Unit]int{}
		for i, u := range p.Units {
			pos[u] = i
		}
		for _, u := range p.Units {
			for _, d := range u.Deps {
				if pos[d] >= pos[u] {
					t.Fatalf("%s: unit %s depends on later unit %s", name, u.ID, d.ID)
				}
			}
		}
	}
}

func TestEpochsRespectDependencies(t *testing.T) {
	for _, name := range models.Names() {
		_, p := tinyPlan(t, name, PresetAll)
		for _, u := range p.Units {
			for _, d := range u.Deps {
				if d.Epoch >= u.Epoch {
					t.Fatalf("%s: dep epoch %d >= unit epoch %d", name, d.Epoch, u.Epoch)
				}
				if d.SuperEpoch > u.SuperEpoch {
					t.Fatalf("%s: dep super-epoch after unit's", name)
				}
			}
		}
	}
}

func TestSuperEpochPartitioning(t *testing.T) {
	// Paper-scale stacked LSTM must split into multiple super-epochs of a
	// few ms each; the tiny config may fit in one.
	m := models.StackedLSTM(models.DefaultConfig("stackedlstm", 16))
	p := Enumerate(m.G, PresetOptions(PresetFKS))
	if len(p.Supers) < 2 {
		t.Fatalf("paper-scale model has %d super-epochs", len(p.Supers))
	}
	for i, se := range p.Supers[:len(p.Supers)-1] {
		if se.Flops == 0 {
			t.Fatalf("super-epoch %d empty", i)
		}
	}
}

func TestEquivalenceClassesCutStateSpace(t *testing.T) {
	// The 4 gate GEMM units of an unfused LSTM step share shapes and
	// deps; equivalence must group them (§4.5.5's 2^10 -> 5 example).
	m := models.StackedLSTM(models.TinyConfig("stackedlstm", 2))
	opts := PresetOptions(PresetFKS)
	opts.FusionAdapt = false // keep GEMMs unfused so classes show up
	p := Enumerate(m.G, opts)
	found := false
	for _, se := range p.Supers {
		for _, ep := range se.Epochs {
			for _, c := range ep.Classes {
				if len(c.Units) >= 2 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no equivalence class with >= 2 units")
	}
	_ = p
}

func TestPresetVariableSets(t *testing.T) {
	_, pF := tinyPlan(t, "scrnn", PresetF)
	_, pFK := tinyPlan(t, "scrnn", PresetFK)
	_, pFKS := tinyPlan(t, "scrnn", PresetFKS)
	_, pAll := tinyPlan(t, "scrnn", PresetAll)
	if len(pF.KernelVars) != 0 || len(pF.StreamVars) != 0 || pF.AllocVar != nil {
		t.Fatal("Astra_F should only have chunk vars")
	}
	if len(pFK.KernelVars) == 0 || len(pFK.StreamVars) != 0 {
		t.Fatal("Astra_FK should add kernel vars only")
	}
	if len(pFKS.StreamVars) == 0 {
		t.Fatal("Astra_FKS should add stream vars")
	}
	vF, vFK, vFKS, vAll := pF.Stats().Variables, pFK.Stats().Variables, pFKS.Stats().Variables, pAll.Stats().Variables
	if !(vF < vFK && vFK < vFKS && vFKS <= vAll) {
		t.Fatalf("variable counts not monotone: %d %d %d %d", vF, vFK, vFKS, vAll)
	}
}

func TestChunkLabels(t *testing.T) {
	cases := map[int][]string{
		2: {"1", "2"},
		3: {"1", "2", "3"},
		4: {"1", "2", "4"},
		6: {"1", "2", "4", "6"},
		8: {"1", "2", "4", "8"},
	}
	for n, want := range cases {
		got := chunkLabels(n)
		if len(got) != len(want) {
			t.Fatalf("chunkLabels(%d) = %v", n, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunkLabels(%d) = %v", n, got)
			}
		}
	}
}

func TestTreeBuiltPerPreset(t *testing.T) {
	for _, preset := range []Preset{PresetF, PresetFK, PresetFKS, PresetAll} {
		_, p := tinyPlan(t, "sublstm", preset)
		if p.Tree == nil {
			t.Fatalf("%s: no tree", preset)
		}
		if p.Tree.Size() == 0 {
			t.Fatalf("%s: empty tree", preset)
		}
	}
}

func TestAllocForkOnlyWithConflicts(t *testing.T) {
	for _, name := range models.Names() {
		_, p := tinyPlan(t, name, PresetAll)
		if p.AllocVar != nil && len(p.Allocs) < 2 {
			t.Fatalf("%s: alloc var without alternatives", name)
		}
		if p.Alloc() == nil {
			t.Fatalf("%s: no active allocation", name)
		}
	}
}

func TestModelsHaveFusionOpportunities(t *testing.T) {
	for _, name := range models.Names() {
		_, p := tinyPlan(t, name, PresetF)
		if len(p.Groups) == 0 {
			t.Fatalf("%s: enumerator found no fusion groups", name)
		}
		st := p.Stats()
		if st.GroupedGEMMs < 4 {
			t.Fatalf("%s: only %d GEMMs grouped", name, st.GroupedGEMMs)
		}
	}
}

func TestUnknownPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown preset accepted")
		}
	}()
	PresetOptions("Astra_nope")
}

func TestCrossStepGroupsFormed(t *testing.T) {
	// The "2-D" fusion dimension: per-timestep input GEMMs sharing a
	// weight must batch across timesteps when per-step fusion leaves them
	// unclaimed (mm(x_t, B) in SC-RNN).
	m := models.SCRNN(models.TinyConfig("scrnn", 2))
	p := Enumerate(m.G, PresetOptions(PresetF))
	found := false
	for _, g := range p.Groups {
		if g.Kind != SharedRight || len(g.GEMMs) < 2 {
			continue
		}
		steps := map[int]bool{}
		for _, n := range g.GEMMs {
			steps[n.Prov.Timestep] = true
		}
		if len(steps) >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no cross-timestep fusion group")
	}
}

func TestBackwardRecurrentGEMMsNotCrossFused(t *testing.T) {
	// Backward recurrent GEMMs mm(dpre_t, Wh^T) are chained through the
	// hidden-state gradient: cross-step batching must reject them.
	m := models.StackedLSTM(models.TinyConfig("stackedlstm", 2))
	p := Enumerate(m.G, PresetOptions(PresetF))
	byOut := m.G.NodeByOutput()
	_ = byOut
	for _, g := range p.Groups {
		steps := map[int]bool{}
		for _, n := range g.GEMMs {
			steps[n.Prov.Timestep] = true
		}
		if len(steps) < 2 {
			continue
		}
		// Cross-step members must be mutually independent: verify by
		// checking that no member's output transitively feeds another.
		cons := m.G.Consumers()
		members := map[*graph.Node]bool{}
		for _, n := range g.GEMMs {
			members[n] = true
		}
		for _, n := range g.GEMMs {
			stack := []*graph.Node{n}
			seen := map[*graph.Node]bool{n: true}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, c := range cons[cur.Out] {
					if members[c] && c != n {
						t.Fatalf("group %s fused dependent GEMMs across steps", g.ID)
					}
					if !seen[c] {
						seen[c] = true
						stack = append(stack, c)
					}
				}
			}
		}
	}
}

func TestForwardBackwardRequestsDeduped(t *testing.T) {
	// The forward gate groups and the backward dx/dh ladders constrain the
	// same weight tensors; canonical operand ordering must give them the
	// same request instead of a spurious conflict.
	m := models.StackedLSTM(models.TinyConfig("stackedlstm", 2))
	p := Enumerate(m.G, PresetOptions(PresetAll))
	shared := map[string]int{}
	for _, g := range p.Groups {
		if g.ReqID != "" {
			shared[g.ReqID]++
		}
	}
	reused := false
	for _, n := range shared {
		if n >= 2 {
			reused = true
		}
	}
	if !reused {
		t.Fatal("no request shared between groups (dedup broken)")
	}
}

func TestSCRNNHasAllocationFork(t *testing.T) {
	// The Figure 1 situation must arise at paper scale on SC-RNN: at least
	// one genuine conflict survives static resolution.
	m := models.SCRNN(models.DefaultConfig("scrnn", 16))
	p := Enumerate(m.G, PresetOptions(PresetAll))
	if p.AllocVar == nil || len(p.Allocs) < 2 {
		t.Fatalf("no allocation fork for paper-scale SC-RNN (allocs=%d)", len(p.Allocs))
	}
}

func TestLargeLaddersAbsorbAccumulation(t *testing.T) {
	// Weight-gradient accumulation across timesteps (dW = sum_t ...) must
	// fuse into a single large ladder rather than a chain of big adds.
	m := models.StackedLSTM(models.TinyConfig("stackedlstm", 2))
	p := Enumerate(m.G, PresetOptions(PresetF))
	maxLadder := 0
	for _, g := range p.Groups {
		if g.Kind == Ladder && len(g.GEMMs) > maxLadder {
			maxLadder = len(g.GEMMs)
		}
	}
	if maxLadder < m.Cfg.SeqLen {
		t.Fatalf("largest ladder has %d members; want >= seqlen %d", maxLadder, m.Cfg.SeqLen)
	}
}

func TestStreamLabelsBalanced(t *testing.T) {
	// §4.5.5 + §4.8: a 10-unit class gets ~5 roughly balanced splits, not
	// 11; small classes enumerate everything.
	if got := streamLabels(2); len(got) != 3 {
		t.Fatalf("streamLabels(2) = %v", got)
	}
	got := streamLabels(10)
	if len(got) != 5 {
		t.Fatalf("streamLabels(10) = %v, want 5 choices (paper's example)", got)
	}
	want := []string{"0", "2", "5", "7", "10"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streamLabels(10) = %v", got)
		}
	}
	if got := streamLabels(5); len(got) != 5 {
		t.Fatalf("streamLabels(5) = %v (duplicates not collapsed)", got)
	}
}
