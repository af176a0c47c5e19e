package enumerate

import (
	"fmt"
	"sort"

	"astra/internal/graph"
	"astra/internal/memory"
)

// UnitKind classifies schedule units.
type UnitKind int

// Unit kinds.
const (
	// UnitSingle is one operator dispatched as one kernel.
	UnitSingle UnitKind = iota
	// UnitEWChain is a chain of elementwise operators JIT-fused into one
	// kernel (§5.3).
	UnitEWChain
	// UnitGEMMGroup is a fusable group of GEMMs (plus any absorbed
	// accumulator adds for ladder groups); the custom-wirer picks the
	// chunking at runtime (§4.4.1).
	UnitGEMMGroup
)

// GroupKind classifies GEMM fusion groups.
type GroupKind int

// Fusion group kinds.
const (
	// SharedLeft fuses mm(A,B1), mm(A,B2), … into mm(A, [B1 B2 …]).
	SharedLeft GroupKind = iota
	// SharedRight fuses mm(A1,B), mm(A2,B), … into mm([A1;A2…], B).
	SharedRight
	// Ladder fuses the GEMM-accumulator pattern mm+mm+add (§4.4.1) into a
	// single reduction GEMM.
	Ladder
)

// String names the group kind.
func (k GroupKind) String() string {
	switch k {
	case SharedLeft:
		return "shared-left"
	case SharedRight:
		return "shared-right"
	case Ladder:
		return "ladder"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// FusionGroup is a set of GEMMs the enumerator proposes for fusion. The
// enumerator finds maximal groups; the custom-wirer picks the actual
// granularity by chunking (§4.4.1).
type FusionGroup struct {
	ID       string
	Kind     GroupKind
	GEMMs    []*graph.Node
	Adds     []*graph.Node  // accumulator adds absorbed by a Ladder group
	Shared   *graph.Value   // the common argument (nil for Ladder)
	Operands []*graph.Value // non-shared operand roots needing contiguity
	ReqID    string         // memory.Request ID, "" if no request needed

	// shrunk records that static conflict resolution already removed a
	// member; a group gives up at most one member statically — further
	// collisions are genuine conflicts that fork the allocation space.
	shrunk bool
}

// Unit is one node of the schedule-level dependency graph.
type Unit struct {
	ID    string
	Kind  UnitKind
	Nodes []*graph.Node
	Group *FusionGroup // for UnitGEMMGroup

	Deps []*Unit
	// Epoch and SuperEpoch are filled by partition().
	Epoch, SuperEpoch int
	// Class is the equivalence-class signature within the epoch (§4.5.5).
	Class string
}

// Flops sums the static flop estimate over the unit's nodes.
func (u *Unit) Flops() int64 {
	var f int64
	for _, n := range u.Nodes {
		f += n.Flops()
	}
	return f
}

// unitBuilder constructs the unit graph from a training graph.
type unitBuilder struct {
	g         *graph.Graph
	cons      map[*graph.Value][]*graph.Node
	views     map[*graph.Node]bool // transposes folded into GEMM op flags
	inGroup   map[*graph.Node]*FusionGroup
	groups    []*FusionGroup
	groupSeq  int
	maxGroup  int
	maxLadder int // ladders may be larger: they absorb accumulator adds
}

// operandRoot sees through view transposes: mm(g, t(W)) reads W directly
// with a transpose flag, so contiguity constraints apply to W itself.
func (ub *unitBuilder) operandRoot(v *graph.Value) *graph.Value {
	if v.Producer != nil && ub.views[v.Producer] {
		return v.Producer.Inputs[0]
	}
	return v
}

// findViews marks transpose nodes all of whose consumers are GEMMs: real
// BLAS libraries absorb those via operand flags, so they cost nothing and
// are excluded from the schedule.
func (ub *unitBuilder) findViews() {
	for _, n := range ub.g.Nodes {
		if n.Op != graph.OpTranspose {
			continue
		}
		consumers := ub.cons[n.Out]
		if len(consumers) == 0 {
			continue
		}
		allGEMM := true
		for _, c := range consumers {
			if c.Op != graph.OpMatMul {
				allGEMM = false
				break
			}
		}
		if allGEMM {
			ub.views[n] = true
		}
	}
}

// provKey buckets nodes by provenance: fusion candidates must share it
// (§4.4.1: "we only consider nodes which have the same provenance").
func provKey(n *graph.Node) string {
	return fmt.Sprintf("%s|%d|%s", n.Prov.Scope, n.Prov.Timestep, n.Prov.Pass)
}

// independentSubset greedily selects a maximal prefix-biased subset of the
// candidate GEMMs with no dependency relation among them (§4.4.1). One
// forward reachability sweep per accepted member marks which later
// candidates it (transitively) feeds; those are rejected.
func (ub *unitBuilder) independentSubset(members []*graph.Node) []*graph.Node {
	if len(members) < 2 {
		return members
	}
	maxID := members[len(members)-1].ID
	isMember := make(map[*graph.Node]bool, len(members))
	for _, m := range members {
		isMember[m] = true
	}
	excluded := map[*graph.Node]bool{}
	var out []*graph.Node
	seen := map[*graph.Node]bool{}
	for _, m := range members {
		if excluded[m] {
			continue
		}
		out = append(out, m)
		// Sweep m's forward cone (bounded by the last candidate's ID),
		// excluding any candidate it reaches.
		clear(seen)
		stack := []*graph.Node{m}
		seen[m] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range ub.cons[n.Out] {
				if c.ID > maxID || seen[c] {
					continue
				}
				seen[c] = true
				if isMember[c] {
					excluded[c] = true
				}
				stack = append(stack, c)
			}
		}
	}
	return out
}

// candidate is a proposed fusion group not yet claimed; the greedy
// selection pass ranks all candidates by size so that, e.g., a 4-gate
// shared-argument group beats the per-gate 2-GEMM ladders competing for the
// same GEMMs.
type candidate struct {
	kind   GroupKind
	shared *graph.Value
	gemms  []*graph.Node
	adds   []*graph.Node // ladders only
	cross  bool          // cross-timestep candidate: claims only leftovers
}

// sortCandidates orders the greedy claim pass: per-step candidates first
// (largest first; ladders win ties because they also absorb their adds),
// then the cross-timestep candidates, which batch whatever per-step fusion
// left unclaimed.
func sortCandidates(cands []candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.cross != b.cross {
			return !a.cross
		}
		if len(a.gemms) != len(b.gemms) {
			return len(a.gemms) > len(b.gemms)
		}
		if (a.kind == Ladder) != (b.kind == Ladder) {
			return a.kind == Ladder
		}
		return a.gemms[0].ID < b.gemms[0].ID
	})
}

// collectSharedArgCandidates mines the §4.4.1 pattern: GEMMs in the same
// provenance bucket sharing one argument.
func (ub *unitBuilder) collectSharedArgCandidates() []candidate {
	byBucket := map[string][]*graph.Node{}
	for _, n := range ub.g.Nodes {
		if n.Op == graph.OpMatMul {
			byBucket[provKey(n)] = append(byBucket[provKey(n)], n)
		}
	}
	buckets := make([]string, 0, len(byBucket))
	for k := range byBucket { // lint:ok map-range keys sorted below
		buckets = append(buckets, k)
	}
	sort.Strings(buckets)
	var cands []candidate
	for _, bk := range buckets {
		gemms := byBucket[bk]
		for _, side := range []int{0, 1} {
			byShared := map[*graph.Value][]*graph.Node{}
			for _, n := range gemms {
				byShared[ub.operandRoot(n.Inputs[side])] = append(byShared[ub.operandRoot(n.Inputs[side])], n)
			}
			kind := SharedLeft
			if side == 1 {
				kind = SharedRight
			}
			// Candidate order decides ties in sortCandidates (and thus
			// which overlapping groups claim first); emit in value-ID
			// order, never map order.
			shared := make([]*graph.Value, 0, len(byShared))
			for v := range byShared { // lint:ok map-range keys sorted below
				shared = append(shared, v)
			}
			sort.Slice(shared, func(i, j int) bool { return shared[i].ID < shared[j].ID })
			for _, v := range shared {
				if ns := byShared[v]; len(ns) >= 2 {
					cands = append(cands, candidate{shared: v, kind: kind, gemms: ns})
				}
			}
		}
	}
	return cands
}

// tryClaim filters a candidate down to free, mutually-independent members
// and registers the group if it stays viable. Ladders must claim all their
// members or none: their absorbed add chain cannot be split.
func (ub *unitBuilder) tryClaim(c candidate) {
	if c.kind == Ladder {
		for _, n := range c.gemms {
			if ub.inGroup[n] != nil {
				return
			}
		}
		for _, a := range c.adds {
			if ub.inGroup[a] != nil {
				return
			}
		}
		if len(c.gemms) < 2 || len(c.gemms) > ub.maxLadder {
			return
		}
		gemms := append([]*graph.Node{}, c.gemms...)
		sort.Slice(gemms, func(i, j int) bool { return gemms[i].ID < gemms[j].ID })
		ub.addGroup(Ladder, nil, gemms, c.adds)
		return
	}
	var free []*graph.Node
	for _, n := range c.gemms {
		if ub.inGroup[n] == nil {
			free = append(free, n)
		}
	}
	if len(free) < 2 {
		return
	}
	if len(free) > ub.maxGroup {
		free = free[:ub.maxGroup] // §4.8: static bound on group size
	}
	independent := ub.independentSubset(free)
	if len(independent) < 2 {
		return
	}
	ub.addGroup(c.kind, c.shared, independent, nil)
}

// collectCrossStepCandidates mines the paper's second ("2-D") fusion
// dimension: GEMMs in different timesteps of the same scope that share a
// weight tensor — mm(x_1, W), mm(x_2, W), … — fuse into one tall GEMM over
// the row-concatenated activations, exactly the cross-timestep batching
// that hand-optimized kernels perform. The resulting contiguity request on
// the per-timestep activations is what conflicts with the backward pass's
// per-step groups, producing the Figure 1 allocation fork.
func (ub *unitBuilder) collectCrossStepCandidates() []candidate {
	type key struct {
		scope  string
		pass   graph.Pass
		shared *graph.Value
	}
	byKey := map[key][]*graph.Node{}
	var order []key
	for _, n := range ub.g.Nodes {
		if n.Op != graph.OpMatMul || n.Prov.Timestep < 0 {
			continue
		}
		w := ub.operandRoot(n.Inputs[1])
		if w.Producer != nil || w.ConstData == nil {
			continue // the shared right operand must be a weight
		}
		k := key{scope: n.Prov.Scope, pass: n.Prov.Pass, shared: w}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], n)
	}
	var cands []candidate
	for _, k := range order {
		gemms := byKey[k]
		steps := map[int]bool{}
		for _, n := range gemms {
			steps[n.Prov.Timestep] = true
		}
		if len(steps) < 2 {
			continue
		}
		cands = append(cands, candidate{shared: k.shared, kind: SharedRight, gemms: gemms, cross: true})
	}
	return cands
}

// findLadders mines GEMM-accumulator ladders: add trees whose leaves are
// findLadders mines GEMM-accumulator ladders: add trees whose leaves are
// single-consumer GEMM outputs of identical shape (§4.4.1).
func (ub *unitBuilder) collectLadderCandidates() []candidate {
	var cands []candidate
	for _, n := range ub.g.Nodes {
		if n.Op != graph.OpAdd {
			continue
		}
		var gemms, adds []*graph.Node
		ok := ub.collectLadder(n, &gemms, &adds)
		if !ok || len(gemms) < 2 {
			continue
		}
		// Take maximal ladders only: skip if n feeds a larger ladder.
		if len(ub.cons[n.Out]) == 1 {
			c := ub.cons[n.Out][0]
			if c.Op == graph.OpAdd && ub.isLadderLeaf(otherInput(c, n.Out)) {
				continue
			}
		}
		if len(gemms) > ub.maxLadder {
			continue
		}
		cands = append(cands, candidate{kind: Ladder, gemms: gemms, adds: adds})
	}
	return cands
}

func otherInput(add *graph.Node, v *graph.Value) *graph.Value {
	if add.Inputs[0] == v {
		return add.Inputs[1]
	}
	return add.Inputs[0]
}

func (ub *unitBuilder) isLadderLeaf(v *graph.Value) bool {
	return v.Producer != nil &&
		(v.Producer.Op == graph.OpMatMul || v.Producer.Op == graph.OpAdd) &&
		len(ub.cons[v]) == 1
}

// collectLadder walks an add tree gathering GEMM leaves; every intermediate
// must have a single consumer and all GEMM outputs the same shape.
func (ub *unitBuilder) collectLadder(n *graph.Node, gemms, adds *[]*graph.Node) bool {
	*adds = append(*adds, n)
	for _, in := range n.Inputs {
		p := in.Producer
		if p == nil || len(ub.cons[in]) != 1 {
			return false
		}
		switch p.Op {
		case graph.OpMatMul:
			if len(*gemms) > 0 && !(*gemms)[0].Out.Shape.Equal(p.Out.Shape) {
				return false
			}
			*gemms = append(*gemms, p)
		case graph.OpAdd:
			if !ub.collectLadder(p, gemms, adds) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (ub *unitBuilder) addGroup(kind GroupKind, shared *graph.Value, gemms []*graph.Node, adds []*graph.Node) {
	g := &FusionGroup{
		ID:     fmt.Sprintf("fuse%d", ub.groupSeq),
		Kind:   kind,
		GEMMs:  gemms,
		Adds:   adds,
		Shared: shared,
	}
	ub.groupSeq++
	// Exactly one non-shared operand per member: the one that must sit
	// adjacent to its neighbours for the fused kernel to read the group as
	// a single matrix. (For ladders the second operand chain matches the
	// weight-gradient layout the paper describes.)
	side := 1
	if kind == SharedRight {
		side = 0
	}
	for _, n := range gemms {
		ub.inGroup[n] = g
		g.Operands = append(g.Operands, ub.operandRoot(n.Inputs[side]))
	}
	for _, a := range adds {
		ub.inGroup[a] = g
	}
	ub.groups = append(ub.groups, g)
}

// requests converts groups' operand lists into memory contiguity requests,
// applying the paper's cheap static conflict resolution first: if two
// groups conflict on exactly one tensor, drop that tensor's GEMM from the
// smaller group (dissolving it if it falls under two members).
func (ub *unitBuilder) requests() []memory.Request {
	reqOf := func(g *FusionGroup) memory.Request {
		return memory.Request{ID: g.ID, Values: canonicalOperands(g.Operands)}
	}
	// Static single-tensor conflict resolution (§4.5.2): when two groups
	// collide on exactly one tensor, drop the offending member from the
	// larger group — but only if both groups stay viable afterwards;
	// otherwise the collision is a real conflict and becomes an
	// allocation-strategy fork.
	for i := 0; i < len(ub.groups); i++ {
		for j := i + 1; j < len(ub.groups); j++ {
			a, b := ub.groups[i], ub.groups[j]
			if len(a.Operands) == 0 || len(b.Operands) == 0 {
				continue
			}
			if operandSig(canonicalOperands(a.Operands)) == operandSig(canonicalOperands(b.Operands)) {
				continue // identical requests coexist
			}
			shared := sharedOperands(a, b)
			if len(shared) != 1 {
				continue
			}
			victim := a
			if len(b.GEMMs) > len(a.GEMMs) {
				victim = b
			}
			if len(victim.GEMMs) <= 2 || victim.shrunk {
				continue // dissolving or re-shrinking: genuine conflict
			}
			victim.dropOperand(shared[0], ub)
		}
	}
	// Deduplicate identical requests (the same weights recur every
	// timestep) and emit the survivors.
	var reqs []memory.Request
	seen := map[string]string{}
	for _, g := range ub.groups {
		if len(g.Operands) < 2 || hasDuplicateValues(g.Operands) {
			continue
		}
		sig := operandSig(canonicalOperands(g.Operands))
		if id, ok := seen[sig]; ok {
			g.ReqID = id
			continue
		}
		seen[sig] = g.ID
		g.ReqID = g.ID
		reqs = append(reqs, reqOf(g))
	}
	return reqs
}

// canonicalOperands returns the operands in value-ID order: the layout only
// needs the block to contain them adjacently; the fused kernel indexes
// members within the block. Canonicalizing lets the forward and backward
// groups over the same weights issue the *same* request instead of
// spuriously conflicting on order.
func canonicalOperands(vals []*graph.Value) []*graph.Value {
	out := append([]*graph.Value{}, vals...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func hasDuplicateValues(vals []*graph.Value) bool {
	seen := map[*graph.Value]bool{}
	for _, v := range vals {
		if seen[v] {
			return true
		}
		seen[v] = true
	}
	return false
}

func operandSig(vals []*graph.Value) string {
	s := ""
	for _, v := range vals {
		s += fmt.Sprintf("%d,", v.ID)
	}
	return s
}

func sharedOperands(a, b *FusionGroup) []*graph.Value {
	set := map[*graph.Value]bool{}
	for _, v := range a.Operands {
		set[v] = true
	}
	var out []*graph.Value
	for _, v := range b.Operands {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// dropOperand removes the GEMM owning the operand from the group; a group
// left with fewer than two members dissolves back to singles.
func (g *FusionGroup) dropOperand(v *graph.Value, ub *unitBuilder) {
	g.shrunk = true
	var keptG []*graph.Node
	var keptOps []*graph.Value
	for i, n := range g.GEMMs {
		if i < len(g.Operands) && g.Operands[i] == v {
			delete(ub.inGroup, n)
			continue
		}
		keptG = append(keptG, n)
		if i < len(g.Operands) {
			keptOps = append(keptOps, g.Operands[i])
		}
	}
	g.GEMMs, g.Operands = keptG, keptOps
	if len(g.GEMMs) < 2 {
		for _, n := range g.GEMMs {
			delete(ub.inGroup, n)
		}
		for _, a := range g.Adds {
			delete(ub.inGroup, a)
		}
		g.GEMMs = nil
	}
}

// buildUnits assembles the final unit list: GEMM groups, JIT-fused
// elementwise chains, and singles for everything else; then wires unit
// dependencies.
func (ub *unitBuilder) buildUnits(ewFusion bool) []*Unit {
	unitOf := map[*graph.Node]*Unit{}
	var units []*Unit
	emitted := map[*FusionGroup]bool{}
	add := func(u *Unit) {
		units = append(units, u)
		for _, n := range u.Nodes {
			unitOf[n] = u
		}
	}

	// Elementwise chains: maximal single-consumer runs in the same
	// provenance bucket, not claimed by a GEMM group.
	chainNext := map[*graph.Node]*graph.Node{}
	chainHasPrev := map[*graph.Node]bool{}
	if ewFusion {
		for _, n := range ub.g.Nodes {
			if !n.Op.IsElementwise() || ub.inGroup[n] != nil {
				continue
			}
			if len(ub.cons[n.Out]) != 1 {
				continue
			}
			c := ub.cons[n.Out][0]
			if !c.Op.IsElementwise() || ub.inGroup[c] != nil || provKey(c) != provKey(n) {
				continue
			}
			if chainHasPrev[c] {
				// c already continues another chain (it has two
				// elementwise producers); it can extend only one.
				continue
			}
			chainNext[n] = c
			chainHasPrev[c] = true
		}
	}

	// A multi-node unit becomes schedulable only once its last node's
	// dependencies exist, so units are emitted at their LAST member's
	// position in the (topological) node order — that keeps the unit list
	// itself topological.
	seq := 0
	groupLast := map[*FusionGroup]*graph.Node{}
	for _, n := range ub.g.Nodes {
		if grp := ub.inGroup[n]; grp != nil {
			groupLast[grp] = n
		}
	}
	chainLast := map[*graph.Node]*graph.Node{} // chain head -> last node
	chainHead := map[*graph.Node]*graph.Node{} // last node -> chain head
	for n := range chainNext {                 // lint:ok map-range writes distinct keys; unit emission follows g.Nodes order
		if chainHasPrev[n] {
			continue // not a head
		}
		last := n
		for c := chainNext[last]; c != nil; c = chainNext[last] {
			last = c
		}
		chainLast[n] = last
		chainHead[last] = n
	}
	for _, n := range ub.g.Nodes {
		switch {
		case ub.views[n]:
			continue // folded into GEMM operand flags
		case ub.inGroup[n] != nil:
			grp := ub.inGroup[n]
			if emitted[grp] || groupLast[grp] != n {
				continue
			}
			emitted[grp] = true
			nodes := append([]*graph.Node{}, grp.GEMMs...)
			nodes = append(nodes, grp.Adds...)
			sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
			add(&Unit{ID: grp.ID, Kind: UnitGEMMGroup, Nodes: nodes, Group: grp})
		case chainHead[n] != nil:
			head := chainHead[n]
			nodes := []*graph.Node{head}
			for c := chainNext[head]; c != nil; c = chainNext[nodes[len(nodes)-1]] {
				nodes = append(nodes, c)
			}
			add(&Unit{ID: fmt.Sprintf("ew%d", seq), Kind: UnitEWChain, Nodes: nodes})
			seq++
		case chainHasPrev[n] || chainNext[n] != nil:
			continue // chain member; emitted at the chain's last node
		default:
			add(&Unit{ID: fmt.Sprintf("n%d", n.ID), Kind: UnitSingle, Nodes: []*graph.Node{n}})
		}
	}

	// Dependencies: a unit depends on the units producing its inputs.
	producer := map[*graph.Value]*Unit{}
	for _, u := range units {
		for _, n := range u.Nodes {
			producer[n.Out] = u
		}
	}
	for _, u := range units {
		depSet := map[*Unit]bool{}
		inUnit := map[*graph.Node]bool{}
		for _, n := range u.Nodes {
			inUnit[n] = true
		}
		for _, n := range u.Nodes {
			for _, in := range n.Inputs {
				src := in
				if in.Producer != nil && ub.views[in.Producer] {
					src = in.Producer.Inputs[0] // view: depend on its source
				}
				p := producer[src]
				if p != nil && p != u && !depSet[p] {
					depSet[p] = true
					u.Deps = append(u.Deps, p)
				}
			}
		}
	}
	return units
}

// Views returns the transpose nodes of g that fold into GEMM operand flags
// (every consumer is a GEMM). Baseline dispatchers share this so that the
// comparison with Astra is not skewed by materializing transposes the
// frameworks also treat as views.
func Views(g *graph.Graph) map[*graph.Node]bool {
	ub := &unitBuilder{g: g, cons: g.Consumers(), views: map[*graph.Node]bool{}}
	ub.findViews()
	return ub.views
}
