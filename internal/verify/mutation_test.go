package verify

import (
	"testing"

	"astra/internal/enumerate"
	"astra/internal/graph"
	"astra/internal/memory"
	"astra/internal/models"
	"astra/internal/tensor"
)

// The mutation tests corrupt schedules, strategies and graphs on purpose
// and assert each analysis catches its corruption. A verifier that passes
// clean plans proves nothing on its own — these tests are the evidence the
// analyses have teeth. The schedules come from BuildSchedule, the lowering
// wire.Runner executes, so each corruption is of the program the device
// would run.

// planFor enumerates a model under the richest preset plus a two-worker
// gradient exchange, so every analysis has structure to bite on.
func planFor(t *testing.T, model string) *enumerate.Plan {
	t.Helper()
	build, ok := models.Get(model)
	if !ok {
		t.Fatalf("model %s not registered", model)
	}
	m := build(models.DefaultConfig(model, 16))
	opts := enumerate.PresetOptions(enumerate.PresetAll)
	opts.CommAdapt = true
	opts.Workers = 2
	return enumerate.Enumerate(m.G, opts)
}

func hasCheck(r *Report, id string) bool {
	for _, c := range r.Checks() {
		if c == id {
			return true
		}
	}
	return false
}

// resetVars drives every adaptive variable to its default choice.
func resetVars(p *enumerate.Plan) {
	if p.Tree == nil {
		return
	}
	for _, v := range p.Tree.Vars() {
		v.SetChoice(0)
	}
}

// bindMultiStream additionally drives every stream variable to its last
// (most spread-out) choice so the schedule genuinely uses several streams.
func bindMultiStream(p *enumerate.Plan) {
	resetVars(p)
	for _, se := range p.Supers {
		for _, ep := range se.Epochs {
			for _, cls := range ep.Classes {
				if v := p.StreamVars[cls]; v != nil {
					v.SetChoice(len(v.Labels) - 1)
				}
			}
		}
	}
}

// --- graph analyses ---

func addNode(g *graph.Graph, op graph.Op, out *graph.Value, ins ...*graph.Value) *graph.Node {
	n := &graph.Node{Op: op, Inputs: ins, Out: out, Prov: graph.Provenance{Timestep: -1}}
	out.Producer = n
	g.Nodes = append(g.Nodes, n)
	return n
}

func TestCheckGraphDetectsCycle(t *testing.T) {
	g := graph.New()
	x := g.NewValue(tensor.Shape{2, 2}, "x")
	g.Inputs = append(g.Inputs, x)
	a := g.NewValue(tensor.Shape{2, 2}, "a")
	b := g.NewValue(tensor.Shape{2, 2}, "b")
	addNode(g, graph.OpAdd, a, b, x) // a needs b ...
	addNode(g, graph.OpAdd, b, a, x) // ... and b needs a
	r := CheckGraph(g)
	if !hasCheck(r, "graph.cycle") {
		t.Fatalf("cycle not detected; findings: %v", r.Findings)
	}
}

func TestCheckGraphDetectsDoubleDefinition(t *testing.T) {
	g := graph.New()
	x := g.NewValue(tensor.Shape{2, 2}, "x")
	g.Inputs = append(g.Inputs, x)
	out := g.NewValue(tensor.Shape{2, 2}, "out")
	addNode(g, graph.OpReLU, out, x)
	addNode(g, graph.OpTanh, out, x) // second definition of the same value
	r := CheckGraph(g)
	if !hasCheck(r, "graph.ssa") {
		t.Fatalf("double definition not detected; findings: %v", r.Findings)
	}
}

func TestCheckGraphDetectsShapeMismatch(t *testing.T) {
	g := graph.New()
	x := g.NewValue(tensor.Shape{2, 3}, "x")
	w := g.NewValue(tensor.Shape{3, 4}, "w")
	g.Inputs = append(g.Inputs, x, w)
	out := g.NewValue(tensor.Shape{5, 5}, "out") // mm gives [2x4]
	addNode(g, graph.OpMatMul, out, x, w)
	r := CheckGraph(g)
	if !hasCheck(r, "graph.shape") {
		t.Fatalf("shape mismatch not detected; findings: %v", r.Findings)
	}
}

func TestCheckGraphDetectsShortRecipe(t *testing.T) {
	// build makes x[2,4] × w[4,3], where w's recipe has recipeRows rows.
	build := func(recipeRows int) *graph.Graph {
		g := graph.New()
		x := g.Input("x", 2, 4)
		w := g.Param("w", graph.Gaussian(tensor.NewRNG(1), 0.08, recipeRows, 3))
		w.Shape = tensor.Shape{4, 3}
		graph.NewBuilder(g).MatMul(x, w)
		return g
	}
	if r := CheckGraph(build(4)); !r.OK() {
		t.Fatalf("clean graph has findings: %v", r.Findings)
	}
	r := CheckGraph(build(3))
	if !hasCheck(r, "graph.const") {
		t.Fatalf("recipe one row short not detected; findings: %v", r.Findings)
	}
}

// --- allocation analyses ---

func TestCheckStrategyDetectsAliasing(t *testing.T) {
	g := graph.New()
	v1 := g.NewValue(tensor.Shape{4}, "v1") // 32 bytes
	v2 := g.NewValue(tensor.Shape{4}, "v2")
	s := memory.ManualStrategy("mutant", nil,
		map[*graph.Value]int64{v1: 0, v2: 16}, 64) // v2 starts inside v1
	r := CheckStrategy(s, g.Values, nil)
	if !hasCheck(r, "alloc.alias") {
		t.Fatalf("aliasing not detected; findings: %v", r.Findings)
	}
}

func TestCheckStrategyDetectsFalseContiguityClaim(t *testing.T) {
	g := graph.New()
	v1 := g.NewValue(tensor.Shape{4}, "v1") // 32 bytes
	v2 := g.NewValue(tensor.Shape{4}, "v2")
	req := memory.Request{ID: "r0", Values: []*graph.Value{v1, v2}}
	s := memory.ManualStrategy("mutant", []string{"r0"},
		map[*graph.Value]int64{v1: 0, v2: 64}, 128) // gap: not contiguous
	r := CheckStrategy(s, g.Values, []memory.Request{req})
	if !hasCheck(r, "alloc.contig") {
		t.Fatalf("false contiguity claim not detected; findings: %v", r.Findings)
	}
}

// --- schedule analyses ---

const mutSpecWorkers = 2

func mutSpec() Spec { return Spec{Workers: mutSpecWorkers} }

func TestCheckScheduleDetectsDeadlock(t *testing.T) {
	p := planFor(t, "scrnn")
	bindMultiStream(p)
	s := BuildSchedule(p, mutSpec())
	mutated := false
	for st := range s.Streams {
		for i := range s.Streams[st] {
			if s.Streams[st][i].Kind == OpWait {
				// Point the wait at an event nothing ever records: the
				// symbolic device hangs exactly like the real one would.
				s.Streams[st][i].Event = s.NumEvents
				s.NumEvents++
				mutated = true
				break
			}
		}
		if mutated {
			break
		}
	}
	if !mutated {
		t.Fatal("schedule has no waits to corrupt")
	}
	r := CheckSchedule(p, s)
	if !hasCheck(r, "sched.deadlock") {
		t.Fatalf("deadlock not detected; findings: %v", r.Findings)
	}
}

func TestCheckScheduleDetectsRace(t *testing.T) {
	p := planFor(t, "scrnn")
	bindMultiStream(p)
	if r := CheckSchedule(p, BuildSchedule(p, mutSpec())); !r.OK() {
		t.Fatalf("baseline schedule not clean: %v", r.Findings)
	}
	// Drop synchronization edges one at a time (a wait becomes an inert
	// record): at least one dropped wait must surface as a cross-stream
	// race, or the race analysis is blind.
	base := BuildSchedule(p, mutSpec())
	for st := range base.Streams {
		for i, op := range base.Streams[st] {
			if op.Kind != OpWait {
				continue
			}
			s := BuildSchedule(p, mutSpec())
			s.Streams[st][i] = Op{Kind: OpRecord, Name: "dropped-wait", Event: s.NumEvents, Bucket: -1}
			s.NumEvents++
			if r := CheckSchedule(p, s); hasCheck(r, "sched.race") {
				return // detected
			}
		}
	}
	t.Fatal("no dropped wait produced a sched.race finding")
}

func TestCheckScheduleDetectsIllegalFusion(t *testing.T) {
	p := planFor(t, "scrnn")
	resetVars(p)
	// Maximal chunking so fused multi-member kernels exist.
	for _, grp := range p.Groups {
		if v := p.ChunkVars[grp]; v != nil {
			v.SetChoice(len(v.Labels) - 1)
		}
	}
	s := BuildSchedule(p, mutSpec())
	fused := 0
	for _, ops := range s.Streams {
		for _, op := range ops {
			if op.Kind == OpKernel && op.Group != nil && op.Members >= 2 {
				fused++
			}
		}
	}
	if fused == 0 {
		t.Fatal("no fused kernels under maximal chunking")
	}
	if r := CheckSchedule(p, s); !r.OK() {
		t.Fatalf("baseline schedule not clean: %v", r.Findings)
	}
	// Mutation 1: swap in an allocation strategy that satisfies no
	// contiguity request. Fused chunks built without gather copies (on the
	// strength of the old strategy's layout) are now reading garbage.
	s.Alloc = memory.ManualStrategy("satisfies-nothing", nil, nil, 0)
	if r := CheckSchedule(p, s); hasCheck(r, "sched.fusion") {
		return
	}
	// Mutation 2: detach a gather copy from its group — the fused chunk
	// right after it loses its staged operands.
	s = BuildSchedule(p, mutSpec())
	detached := false
	for st := range s.Streams {
		for i := range s.Streams[st] {
			if s.Streams[st][i].Kind == OpCopy && s.Streams[st][i].Group != nil {
				s.Streams[st][i].Group = nil
				detached = true
				break
			}
		}
		if detached {
			break
		}
	}
	if detached {
		if r := CheckSchedule(p, s); hasCheck(r, "sched.fusion") {
			return
		}
	}
	t.Fatal("neither alloc swap nor copy detachment produced a sched.fusion finding")
}

func TestCheckScheduleDetectsBucketCorruption(t *testing.T) {
	p := planFor(t, "scrnn")
	resetVars(p)
	s := BuildSchedule(p, mutSpec())
	if len(s.Buckets) == 0 {
		t.Fatal("schedule has no comm buckets")
	}
	if r := CheckSchedule(p, s); !r.OK() {
		t.Fatalf("baseline schedule not clean: %v", r.Findings)
	}
	s.Buckets = s.Buckets[:len(s.Buckets)-1] // a bucket's gradients vanish
	r := CheckSchedule(p, s)
	if !hasCheck(r, "comm.coverage") {
		t.Fatalf("bucket corruption not detected; findings: %v", r.Findings)
	}
}

func TestCheckScheduleDetectsEarlyBucketLaunch(t *testing.T) {
	p := planFor(t, "scrnn")
	resetVars(p)
	base := BuildSchedule(p, mutSpec())
	if len(base.Buckets) == 0 {
		t.Fatal("schedule has no comm buckets")
	}
	// Drop the readiness waits ahead of ring steps one at a time: the
	// exchange must be seen launching before its producers complete.
	for st := range base.Streams {
		for i, op := range base.Streams[st] {
			if op.Kind != OpWait {
				continue
			}
			// Only waits immediately ahead of a comm step are candidates.
			ahead := false
			for j := i + 1; j < len(base.Streams[st]) && j <= i+4; j++ {
				if base.Streams[st][j].Kind == OpKernel && base.Streams[st][j].Bucket >= 0 {
					ahead = true
					break
				}
			}
			if !ahead {
				continue
			}
			s := BuildSchedule(p, mutSpec())
			s.Streams[st][i] = Op{Kind: OpRecord, Name: "dropped-ready-wait", Event: s.NumEvents, Bucket: -1}
			s.NumEvents++
			if r := CheckSchedule(p, s); hasCheck(r, "comm.order") {
				return
			}
		}
	}
	t.Fatal("no dropped readiness wait produced a comm.order finding")
}

func TestCheckScheduleDetectsMissingEndSync(t *testing.T) {
	p := planFor(t, "scrnn")
	bindMultiStream(p)
	s := BuildSchedule(p, mutSpec())
	// Decapitate the batch-end marker: the schedule no longer proves the
	// device drained before the batch is declared done.
	last := len(s.Streams[0]) - 1
	if last < 0 || s.Streams[0][last].Kind != OpEnd {
		t.Fatal("schedule has no batch-end marker")
	}
	s.Streams[0][last] = Op{Kind: OpRecord, Name: "not-an-end", Event: s.NumEvents, Bucket: -1}
	s.NumEvents++
	r := CheckSchedule(p, s)
	if !hasCheck(r, "sched.endsync") {
		t.Fatalf("missing end marker not detected; findings: %v", r.Findings)
	}
}

// --- unit analyses ---

func TestCheckUnitsDetectsDroppedDependency(t *testing.T) {
	p := planFor(t, "scrnn")
	var victim *enumerate.Unit
	var saved []*enumerate.Unit
	for _, u := range p.Units {
		if len(u.Deps) > 0 {
			victim = u
			saved = u.Deps
			break
		}
	}
	if victim == nil {
		t.Fatal("no unit with dependencies")
	}
	victim.Deps = nil
	defer func() { victim.Deps = saved }()
	r := CheckUnits(p)
	if !hasCheck(r, "units.dep") {
		t.Fatalf("dropped dependency not detected; findings: %v", r.Findings)
	}
}
