// Package enumerate implements Astra's compiler half: the enumerator
// (§4.4). It performs static analysis over the training graph — GEMM
// fusion candidate mining, fusion ladders, elementwise chains, memory
// contiguity requests and allocation strategies, super-epoch/epoch
// partitioning, equivalence classes — and emits (a) a schedule-unit graph
// and (b) an update tree of adaptive variables with exploration-mode
// annotations. It deliberately contains no cost model beyond coarse static
// flop estimates: ranking configurations is the runtime's job.
package enumerate

import (
	"fmt"
	"strconv"

	"astra/internal/adapt"
	"astra/internal/graph"
	"astra/internal/memory"
)

// Options selects the adaptation dimensions, mirroring the ablation columns
// of Tables 2–6: Astra_F (fusion), Astra_FK (+kernel selection), Astra_FKS
// (+streams), Astra_all (+memory allocation).
type Options struct {
	FusionAdapt bool // adapt GEMM fusion chunking
	KernelAdapt bool // adapt GEMM library per group
	StreamAdapt bool // adapt multi-stream assignment
	AllocAdapt  bool // adapt memory-allocation strategy

	// ElementwiseFusion JIT-fuses pointwise chains (§5.3); always on in
	// the paper's prototype.
	ElementwiseFusion bool

	// CommAdapt adds the data-parallel communication dimension (§3.4,
	// §6.7): gradient-bucket size and comm-stream placement become
	// adaptive variables. It only takes effect with Workers >= 2.
	CommAdapt bool
	// Workers is the data-parallel worker count the schedule will run at;
	// it sizes the ring all-reduce the comm variables control.
	Workers int

	// NumStreams is the stream count used when StreamAdapt is set.
	NumStreams int
	// SuperEpochUs is the barrier-exploration granularity (§4.5.3),
	// "a few milliseconds worth of computation".
	SuperEpochUs float64
	// FlopsPerUs converts static flops to estimated device time for
	// super-epoch carving.
	FlopsPerUs float64
	// MaxGroup bounds fusion group size (§4.8: diminishing returns).
	MaxGroup int
	// MaxAllocStrategies bounds the allocation fork width.
	MaxAllocStrategies int
	// MaxEpochTuples bounds the exhaustive product within one epoch;
	// classes beyond it keep the static round-robin stream assignment.
	MaxEpochTuples int

	// Preset records which named preset produced these options (set by
	// PresetOptions, empty for hand-assembled options). It changes no
	// enumeration behaviour; sessions stamp it into their event logs so a
	// log alone suffices to rebuild an equivalent plan.
	Preset string
}

// Preset names the cumulative feature levels of the evaluation tables.
type Preset string

// Presets as reported in the paper's tables.
const (
	PresetF   Preset = "Astra_F"
	PresetFK  Preset = "Astra_FK"
	PresetFKS Preset = "Astra_FKS"
	PresetAll Preset = "Astra_all"
)

// DefaultStreams is the stream count of options that leave NumStreams 0.
const DefaultStreams = 2

// PresetOptions returns the options for a named preset.
func PresetOptions(p Preset) Options {
	o := Options{FusionAdapt: true, ElementwiseFusion: true, Preset: string(p)}
	switch p {
	case PresetF:
	case PresetFK:
		o.KernelAdapt = true
	case PresetFKS:
		o.KernelAdapt = true
		o.StreamAdapt = true
	case PresetAll:
		o.KernelAdapt = true
		o.StreamAdapt = true
		o.AllocAdapt = true
	default:
		panic(fmt.Sprintf("enumerate: unknown preset %q", p))
	}
	return o
}

func (o Options) withDefaults() Options {
	if o.NumStreams == 0 {
		o.NumStreams = DefaultStreams
	}
	if o.SuperEpochUs == 0 {
		o.SuperEpochUs = 2000
	}
	if o.FlopsPerUs == 0 {
		// Achieved (not peak) throughput of the long-tail models the
		// system targets: they underutilize the GPU, which is the point.
		o.FlopsPerUs = 0.5e6
	}
	if o.MaxGroup == 0 {
		o.MaxGroup = 16
	}
	if o.MaxAllocStrategies == 0 {
		o.MaxAllocStrategies = 6
	}
	if o.MaxEpochTuples == 0 {
		o.MaxEpochTuples = 64
	}
	return o
}

// Plan is the enumerator's output: the templated schedule (§4.4) plus the
// update tree the custom-wirer explores.
type Plan struct {
	G    *graph.Graph
	Opts Options

	Units    []*Unit
	Groups   []*FusionGroup // live groups (>= 2 members)
	Requests []memory.Request
	Allocs   []*memory.Strategy
	Supers   []*SuperEpoch

	// Tree is nil when no adaptation dimension is enabled.
	Tree *adapt.Tree

	AllocVar   *adapt.Var
	ChunkVars  map[*FusionGroup]*adapt.Var
	KernelVars map[*Unit]*adapt.Var
	StreamVars map[*Class]*adapt.Var
	// EpochVarID names the composite (exhaustive) variable measuring each
	// epoch, for metric attribution by the custom-wirer.
	EpochVarID map[*Epoch]string
	// EpochVars holds the composite variables themselves.
	EpochVars map[*Epoch]*adapt.Var

	// Grads locates every parameter gradient in the schedule, in dispatch
	// order — the packing order of the gradient-bucketing comm engine.
	Grads []GradSite
	// CommBucketVar / CommPlaceVar are the communication dimension's
	// adaptive variables (nil unless CommAdapt with Workers >= 2).
	CommBucketVar *adapt.Var
	CommPlaceVar  *adapt.Var
}

// Enumerate runs the compiler over a training graph.
func Enumerate(g *graph.Graph, opts Options) *Plan {
	opts = opts.withDefaults()
	ub := &unitBuilder{
		g:         g,
		cons:      g.Consumers(),
		views:     map[*graph.Node]bool{},
		inGroup:   map[*graph.Node]*FusionGroup{},
		maxGroup:  opts.MaxGroup,
		maxLadder: 4 * opts.MaxGroup,
	}
	// Candidates from all three miners compete in one greedy pass, largest
	// first, so a 4-gate shared-argument group beats the per-gate 2-GEMM
	// ladders for the same GEMMs, and cross-timestep groups pick up
	// whatever per-step fusion left unclaimed.
	ub.findViews()
	cands := ub.collectLadderCandidates()
	cands = append(cands, ub.collectSharedArgCandidates()...)
	cands = append(cands, ub.collectCrossStepCandidates()...)
	sortCandidates(cands)
	for _, c := range cands {
		ub.tryClaim(c)
	}
	requests := ub.requests()
	units := ub.buildUnits(opts.ElementwiseFusion)

	planner := &memory.Planner{MaxStrategies: opts.MaxAllocStrategies}
	allocs := planner.Plan(g.Values, requests)
	if !opts.AllocAdapt {
		allocs = allocs[:1] // the greedy default layout
	}

	supers := partition(units, opts.SuperEpochUs, opts.FlopsPerUs)

	p := &Plan{
		G:          g,
		Opts:       opts,
		Units:      units,
		Requests:   requests,
		Allocs:     allocs,
		Supers:     supers,
		ChunkVars:  map[*FusionGroup]*adapt.Var{},
		KernelVars: map[*Unit]*adapt.Var{},
		StreamVars: map[*Class]*adapt.Var{},
		EpochVarID: map[*Epoch]string{},
		EpochVars:  map[*Epoch]*adapt.Var{},
	}
	for _, u := range units {
		if u.Kind == UnitGEMMGroup {
			p.Groups = append(p.Groups, u.Group)
		}
	}
	p.Grads = p.gradSites()
	p.buildTree()
	return p
}

// chunkLabels enumerates fusion granularities: powers of two up to the
// group size, always including 1 (unfused) and the full group.
func chunkLabels(n int) []string {
	var out []string
	for c := 1; c < n; c *= 2 {
		out = append(out, strconv.Itoa(c))
	}
	return append(out, strconv.Itoa(n))
}

// streamLabels enumerates "k of n units to stream 1" for a class (§4.5.5).
// Small classes enumerate every split; larger classes keep about five
// evenly spaced splits — the paper's worked example gives 10 equivalent
// kernels just 5 choices, using the §4.8 static knowledge that stream work
// should stay roughly balanced.
func streamLabels(n int) []string {
	if n <= 4 {
		out := make([]string, n+1)
		for k := 0; k <= n; k++ {
			out[k] = strconv.Itoa(k)
		}
		return out
	}
	var out []string
	seen := map[int]bool{}
	for _, k := range []int{0, n / 4, n / 2, (3 * n) / 4, n} {
		if !seen[k] {
			seen[k] = true
			out = append(out, strconv.Itoa(k))
		}
	}
	return out
}

var libraryLabels = []string{"cublas", "oai1", "oai2"}

// buildTree assembles the update tree from the enabled dimensions:
//
//	Fork(alloc,
//	  Parallel(
//	    per fusion group: Prefix(chunk, lib),
//	    per standalone GEMM: lib,
//	    Parallel over super-epochs (barrier exploration),
//	      each: Prefix over epochs,
//	        each: Exhaustive over class stream variables))
func (p *Plan) buildTree() {
	var body []*adapt.Tree
	for _, u := range p.Units {
		switch u.Kind {
		case UnitGEMMGroup:
			var children []*adapt.Tree
			if p.Opts.FusionAdapt {
				cv := adapt.NewVar(u.Group.ID+".chunk", chunkLabels(len(u.Group.GEMMs))...)
				p.ChunkVars[u.Group] = cv
				children = append(children, adapt.LeafNode(cv))
			}
			if p.Opts.KernelAdapt {
				kv := adapt.NewVar(u.Group.ID+".lib", libraryLabels...)
				p.KernelVars[u] = kv
				children = append(children, adapt.LeafNode(kv))
			}
			switch len(children) {
			case 0:
			case 1:
				body = append(body, children[0])
			default:
				// Chunking first, then the library for the chosen shape:
				// the best kernel depends on the fused problem size.
				body = append(body, adapt.NewNode(u.Group.ID, adapt.Prefix, children...))
			}
		case UnitSingle:
			if p.Opts.KernelAdapt && u.Nodes[0].Op == graph.OpMatMul {
				kv := adapt.NewVar(u.ID+".lib", libraryLabels...)
				p.KernelVars[u] = kv
				body = append(body, adapt.LeafNode(kv))
			}
		}
	}
	if p.Opts.StreamAdapt && p.Opts.NumStreams >= 2 {
		var supers []*adapt.Tree
		for _, se := range p.Supers {
			var epochs []*adapt.Tree
			for _, ep := range se.Epochs {
				var classes []*adapt.Tree
				product := 1
				for k, cls := range ep.Classes {
					// Cap the within-epoch brute force (§4.5.5 keeps it
					// small; this is the safety valve for wide backward
					// levels). Classes beyond the cap are pinned to the
					// static round-robin assignment.
					if product*(len(cls.Units)+1) > p.Opts.MaxEpochTuples {
						continue
					}
					product *= len(cls.Units) + 1
					sv := adapt.NewVar(fmt.Sprintf("se%d.ep%d.c%d", se.Index, ep.Index, k),
						streamLabels(len(cls.Units))...)
					p.StreamVars[cls] = sv
					classes = append(classes, adapt.LeafNode(sv))
				}
				if len(classes) == 0 {
					continue
				}
				id := fmt.Sprintf("se%d.ep%d", se.Index, ep.Index)
				p.EpochVarID[ep] = id
				node := adapt.NewNode(id, adapt.Exhaustive, classes...)
				p.EpochVars[ep] = node.CompositeVar()
				epochs = append(epochs, node)
			}
			if len(epochs) == 0 {
				continue
			}
			supers = append(supers, adapt.NewNode(fmt.Sprintf("se%d", se.Index), adapt.Prefix, epochs...))
		}
		if len(supers) > 0 {
			// Barrier exploration: super-epochs are independent thanks to
			// the forced synchronization at their boundaries.
			body = append(body, adapt.NewNode("streams", adapt.Parallel, supers...))
		}
	}
	var inner *adapt.Tree
	switch len(body) {
	case 0:
	case 1:
		inner = body[0]
	default:
		inner = adapt.NewNode("body", adapt.Parallel, body...)
	}
	// The communication dimension explores after the compute schedule has
	// frozen (Prefix): its variables are judged on end-to-end batch time,
	// which is only a clean signal once fusion/kernel/stream choices have
	// stopped moving — and the best bucketing genuinely depends on them.
	if p.Opts.CommAdapt && p.Opts.Workers >= 2 && len(p.Grads) > 0 {
		comm := p.buildCommNode()
		if inner == nil {
			inner = comm
		} else {
			inner = adapt.NewNode("sched", adapt.Prefix, inner, comm)
		}
	}
	if inner == nil {
		return
	}
	if p.Opts.AllocAdapt && len(p.Allocs) > 1 {
		labels := make([]string, len(p.Allocs))
		for i, a := range p.Allocs {
			labels[i] = a.Name
		}
		p.AllocVar = adapt.NewVar("alloc", labels...)
		p.Tree = adapt.NewNode("root", adapt.Fork, adapt.LeafNode(p.AllocVar), inner)
		return
	}
	p.Tree = inner
}

// Alloc returns the active allocation strategy given the alloc variable's
// current choice (or the default when allocation is not adapted).
func (p *Plan) Alloc() *memory.Strategy {
	if p.AllocVar == nil {
		return p.Allocs[0]
	}
	return p.Allocs[p.AllocVar.Current()]
}

// Stats summarizes the plan for reports.
type Stats struct {
	Units, Groups, GroupedGEMMs int
	Requests, Allocs            int
	SuperEpochs, Epochs         int
	Variables                   int
}

// Stats computes plan summary statistics.
func (p *Plan) Stats() Stats {
	s := Stats{
		Units:    len(p.Units),
		Groups:   len(p.Groups),
		Requests: len(p.Requests),
		Allocs:   len(p.Allocs),
	}
	for _, g := range p.Groups {
		s.GroupedGEMMs += len(g.GEMMs)
	}
	s.SuperEpochs = len(p.Supers)
	for _, se := range p.Supers {
		s.Epochs += len(se.Epochs)
	}
	if p.Tree != nil {
		s.Variables = len(p.Tree.Vars())
	}
	return s
}
