package adapt

import (
	"fmt"
	"slices"
	"sort"

	"astra/internal/obs"
	"astra/internal/profile"
)

// Explorer drives an update tree through the exploration state space, one
// configuration per mini-batch trial. Usage (by the custom-wirer):
//
//	e := NewExplorerPrior(tree, index, "", nil)
//	for !e.Done() {
//	    metrics := runMiniBatchWithCurrentChoices()
//	    e.Observe(metrics)
//	    e.Advance()
//	}
//	// every variable is now frozen at its best choice
type Explorer struct {
	root *Tree
	ix   *profile.Index
	// base is the root profile context every key is mangled under. The
	// default "" reproduces the single-job layout; a long-running service
	// sharing one index across jobs namespaces each job's keys with its job
	// signature so mixed tenants never collide (see internal/serve).
	base   string
	vars   []*Var
	done   bool
	trials int
	err    error

	// noProgress counts consecutive Advance calls that neither recorded
	// new samples nor finished exploration; it guards against a
	// custom-wirer that fails to measure the active variables.
	noProgress  int
	lastSamples int
	// reexplorations counts Thaw calls — in-session re-explorations
	// triggered by drift or an explicit re-tune.
	reexplorations int

	// frozeAt records, per variable ID, the trial at which the variable
	// last transitioned to frozen — the exploration-convergence timeline.
	// A variable whose context changes (a higher-level policy moved) thaws
	// and re-freezes later; the map keeps the final freeze.
	frozeAt   map[string]int
	wasFrozen map[string]bool
	// froze lists the IDs that froze in the last walk, sorted; it is sized
	// for every variable once, so no walk allocates it (see Froze).
	froze      []string
	mTrials    *obs.Counter
	mFrozen    *obs.Gauge
	mVarsTotal *obs.Gauge
	mReexplore *obs.Counter

	// prior, when non-nil, reorders and prunes each variable's candidate
	// visit sequence from learned cost predictions (see prior.go and
	// internal/costmodel). Frozen choices are still always measured bests.
	prior      Prior
	priorStats PriorStats
	// prunedEver audits every "varID=label" any plan pruned (see
	// PrunedChoices) — harness cells assert a cold run's winners are
	// disjoint from it.
	prunedEver                  map[string]bool
	mPriorHits, mPriorMisses    *obs.Counter
	mPriorPruned, mPriorRankInv *obs.Counter
}

// NewExplorerPrior initializes the tree and positions it at the first
// configuration to measure. Every key the exploration records or probes is
// mangled under baseCtx ("" is the single-job root context). Exploration
// behaviour is identical for any baseCtx — the context only shifts key
// identity — which is what lets many concurrent jobs share one
// profile.Index without cross-talk, each under its own namespace, while
// identical jobs (same baseCtx) warm-start off each other. prior, when
// non-nil, is a learned cost-model prior; it must be set at construction:
// the first tree walk happens here, and the visit plan of the very first
// variable already depends on it.
func NewExplorerPrior(root *Tree, ix *profile.Index, baseCtx string, prior Prior) *Explorer {
	vars := root.Vars()
	e := &Explorer{
		root: root, ix: ix, base: baseCtx, vars: vars, prior: prior,
		frozeAt: map[string]int{}, wasFrozen: map[string]bool{},
		froze: make([]string, 0, len(vars)),
	}
	root.Initialize()
	ix.SetTrial(0)
	e.walk()
	return e
}

// walk walks the tree from the root and notes the freezes. Once
// exploration is done it drops the caches only exploring walks read: each
// variable's profile keys and each node's memoized contexts. A thaw's walk
// and KeyFor rebuild them on demand.
func (e *Explorer) walk() {
	e.done = e.setup(e.root, e.base)
	e.noteFreezes()
	if e.done {
		e.root.dropCaches()
	}
}

// Instrument attaches a metrics registry: Advance keeps explore.trials,
// explore.frozen_vars and explore.vars_total current.
func (e *Explorer) Instrument(reg *obs.Registry) {
	e.mTrials = reg.Counter("explore.trials", "exploration mini-batches consumed")
	e.mFrozen = reg.Gauge("explore.frozen_vars", "adaptive variables frozen at their best choice")
	e.mVarsTotal = reg.Gauge("explore.vars_total", "adaptive variables in the update tree")
	e.mReexplore = reg.Counter("explore.reexplorations", "in-session thaw/re-explore rounds")
	if e.prior != nil {
		e.mPriorHits = reg.Counter("costmodel.prior_hits", "freezes where the prior's top-ranked candidate won")
		e.mPriorMisses = reg.Counter("costmodel.prior_misses", "freezes where the measured best was not ranked first")
		e.mPriorPruned = reg.Counter("costmodel.pruned", "candidate measurements skipped by cost-model pruning")
		e.mPriorRankInv = reg.Counter("costmodel.rank_inversions", "summed predicted-rank positions of measured bests on prior misses")
		e.mPriorHits.Add(float64(e.priorStats.Hits))
		e.mPriorMisses.Add(float64(e.priorStats.Misses))
		e.mPriorPruned.Add(float64(e.priorStats.Pruned))
		e.mPriorRankInv.Add(float64(e.priorStats.RankInversions))
	}
	frozen, total := e.FrozenCount()
	e.mFrozen.Set(float64(frozen))
	e.mVarsTotal.Set(float64(total))
}

// noteFreezes updates the convergence timeline after a tree walk: each
// unfrozen→frozen transition is stamped with the current trial count and
// listed in Froze.
func (e *Explorer) noteFreezes() {
	e.froze = e.froze[:0]
	for _, v := range e.vars {
		f := v.Frozen()
		if f && !e.wasFrozen[v.ID] {
			e.frozeAt[v.ID] = e.trials
			e.froze = append(e.froze, v.ID)
		}
		e.wasFrozen[v.ID] = f
	}
	slices.Sort(e.froze)
	if e.mFrozen != nil {
		frozen, total := e.FrozenCount()
		e.mFrozen.Set(float64(frozen))
		e.mVarsTotal.Set(float64(total))
	}
}

// FrozenCount returns how many variables are currently frozen at their
// best choice, and the total variable count.
func (e *Explorer) FrozenCount() (frozen, total int) {
	for _, v := range e.vars {
		if v.Frozen() {
			frozen++
		}
	}
	return frozen, len(e.vars)
}

// Froze returns the IDs of the variables that froze during the last tree
// walk (the last Advance, ReExplore or Thaw, or construction), sorted — the
// stable form event logs and analyzers read. The slice belongs to the
// explorer and is valid until its next walk.
func (e *Explorer) Froze() []string { return e.froze }

// ConvergencePoint is one entry of the exploration-convergence timeline.
type ConvergencePoint struct {
	VarID string
	Trial int // trials consumed when the variable (last) froze
}

// ConvergenceTimeline returns, for every variable that has frozen, the
// trial at which it last converged — sorted by trial, then ID. After Done
// this is the full §6.3-style convergence account of the session.
func (e *Explorer) ConvergenceTimeline() []ConvergencePoint {
	out := make([]ConvergencePoint, 0, len(e.frozeAt))
	for id, tr := range e.frozeAt {
		if !e.wasFrozen[id] {
			continue // thawed since; not converged right now
		}
		out = append(out, ConvergencePoint{VarID: id, Trial: tr})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Trial != out[j].Trial {
			return out[i].Trial < out[j].Trial
		}
		return out[i].VarID < out[j].VarID
	})
	return out
}

// Done reports whether exploration has stopped: every variable frozen at
// its best choice for its final context, or exploration failed (see Err).
func (e *Explorer) Done() bool { return e.done || e.err != nil }

// Err returns the sticky exploration error: non-nil once Advance detects
// stuck exploration (the custom-wirer stopped measuring the active
// variables). A session with a non-nil Err failed; its variables are not at
// validated bests.
func (e *Explorer) Err() error { return e.err }

// Reexplorations returns how many thaw/re-explore rounds the session ran.
func (e *Explorer) Reexplorations() int { return e.reexplorations }

// Trials returns the number of mini-batches consumed by exploration so far
// — the "number of configs" of Table 7.
func (e *Explorer) Trials() int { return e.trials }

// Vars returns the tree's variables (stable order).
func (e *Explorer) Vars() []*Var { return e.vars }

// Observe records the metrics measured for the current trial. The map is
// keyed by variable ID; only variables the walk marked as actively
// exploring are recorded, each under its context-mangled key.
func (e *Explorer) Observe(metrics map[string]float64) {
	for _, v := range e.vars {
		if !v.record {
			continue
		}
		m, ok := metrics[v.ID]
		if !ok {
			continue
		}
		e.ix.Record(v.Key(), m)
		if e.prior != nil {
			e.prior.Observe(v.ctx, v.ID, v.CurrentLabel(), m)
		}
	}
}

// Advance moves the tree to the next configuration. It must be called
// after Observe; when it returns false the exploration is complete and all
// variables hold their best choices.
func (e *Explorer) Advance() bool {
	if e.done || e.err != nil {
		return false
	}
	// Progress means Observe recorded new samples since the last Advance
	// (multi-sample policies re-measure the same key, so the index length
	// alone is not the signal); a custom-wirer that never measures the
	// active variables would loop on the same configuration forever. The
	// error is sticky: library code must not panic on a misbehaving wirer.
	if e.ix.Samples() == e.lastSamples {
		e.noProgress++
		if e.noProgress > 10 {
			e.err = fmt.Errorf("adapt: exploration stuck after %d trials — active variables are not being measured", e.trials)
			return false
		}
	} else {
		e.noProgress = 0
	}
	e.lastSamples = e.ix.Samples()
	e.trials++
	e.ix.SetTrial(e.trials)
	if e.mTrials != nil {
		e.mTrials.Inc()
	}
	e.walk()
	return !e.done
}

// Thaw unfreezes the given variables (every variable in the tree when none
// are named), evicts their profile measurements in all contexts, and
// re-enters exploration. Dependent measurements of later prefix siblings
// are invalidated by the context-mangling machinery on their own: when a
// thawed variable re-freezes to a different choice its digest changes, the
// dependent keys miss, and exactly the affected subtree re-measures. The
// wired-phase drift watchdog calls this with no arguments — after a device
// characteristic shifts, every old measurement is suspect. Returns the
// number of evicted index entries.
func (e *Explorer) Thaw(varIDs ...string) int {
	ids := map[string]bool{}
	if len(varIDs) == 0 {
		for _, v := range e.vars {
			ids[v.ID] = true
		}
	} else {
		for _, id := range varIDs {
			ids[id] = true
		}
	}
	evicted := 0
	for _, v := range e.vars {
		if !ids[v.ID] {
			continue
		}
		v.frozen = false
		v.frozenCtx = ""
		e.wasFrozen[v.ID] = false
		delete(e.frozeAt, v.ID)
		evicted += e.ix.EvictVar(v.ID)
	}
	e.reexplorations++
	if e.mReexplore != nil {
		e.mReexplore.Inc()
	}
	// The thaw evicted the measurements the prior's recent knowledge came
	// from (drift: the device changed under us) — decay the model and drop
	// every cached plan so re-exploration re-ranks against state that the
	// re-measurements about to stream in can dominate.
	e.invalidatePlans()
	e.noProgress = 0
	e.lastSamples = e.ix.Samples()
	e.ReExplore()
	return evicted
}

// ReExplore re-walks the tree against the current index contents and
// recomputes convergence — call it after mutating the index (Thaw does this
// itself). It returns true when exploration has work to do again.
func (e *Explorer) ReExplore() bool {
	e.walk()
	return !e.done
}

// setup walks the subtree, assigns contexts, selects the next choice to
// measure for actively-exploring variables, and returns whether the
// subtree has fully converged under ctx.
func (e *Explorer) setup(t *Tree, ctx string) bool {
	switch {
	case t.Var != nil:
		return e.setupLeaf(t.Var, ctx)
	case t.Mode == Parallel:
		done := true
		for _, c := range t.Children {
			if !e.setup(c, ctx) {
				done = false
			}
		}
		return done
	case t.Mode == Prefix:
		return e.setupPrefix(t, ctx)
	case t.Mode == Exhaustive:
		return e.setupExhaustive(t, ctx)
	case t.Mode == Fork:
		return e.setupFork(t, ctx)
	}
	panic(fmt.Sprintf("adapt: unknown mode %v", t.Mode))
}

func (e *Explorer) setupLeaf(v *Var, ctx string) bool {
	v.ctx = ctx
	v.record = false
	if v.frozen && v.frozenCtx == ctx {
		return true
	}
	v.frozen = false
	plan := e.planFor(v)
	for i := range v.Labels {
		c := plan.visit(i)
		if plan.pruned(c) {
			continue
		}
		if !e.ix.Has(v.KeyFor(c)) {
			v.current = c
			v.record = true
			return false
		}
	}
	// Best ranks only measured keys, so pruned (hence unmeasured)
	// candidates are simply absent from the decision.
	best, _, ok := e.ix.Best(ctx, v.ID, v.Labels)
	if !ok {
		panic("adapt: all choices measured but no best — empty label set?")
	}
	v.current = best
	v.frozen = true
	v.frozenCtx = ctx
	e.notePriorOutcome(v, best)
	return true
}

// setupPrefix explores children left to right. Earlier siblings freeze at
// their best and a digest of their frozen labels becomes part of the later
// siblings' context, making the exploration history-aware while staying
// additive in the number of children (§4.5.4). The digests of *all* earlier
// siblings accumulate into the context: rebuilding it from only the
// immediately-preceding sibling would let a change in child A's frozen
// choice go unnoticed by child C whenever child B's digest repeats.
//
// Each derived context comes from the node's memo (see ctxMemo), so a walk
// that changes no digest builds no string.
//
//astra:hotpath
func (e *Explorer) setupPrefix(t *Tree, ctx string) bool {
	n := len(t.Children)
	if len(t.ctxs) != 2*n {
		// lint:ok escape the node's memo, sized on its first walk
		t.ctxs = make([]ctxMemo, 2*n)
	}
	childCtx := ctx
	for i, child := range t.Children {
		if !e.setup(child, childCtx) {
			// Slot n+i: the pending context of the siblings after child i.
			m := &t.ctxs[n+i]
			if m.out == "" || m.in != childCtx {
				// lint:ok escape rebuilt only when child i's context changed
				m.in, m.out = childCtx, childCtx+"/pending"
			}
			for _, later := range t.Children[i+1:] {
				e.pin(later, m.out)
			}
			return false
		}
		if i == n-1 {
			break
		}
		// Slot i: the context of the siblings after child i once it froze.
		d := digest(child)
		m := &t.ctxs[i]
		if m.out == "" || m.key != d || m.in != childCtx {
			// lint:ok escape rebuilt only when child i's context or digest changed
			m.in, m.key, m.out = childCtx, d, childCtx+"/"+t.Title+":"+fmt.Sprintf("%08x", d)
		}
		childCtx = m.out
	}
	return true
}

// ctxMemo is one context string an internal node derives from its input
// context, with the inputs it was built from. It is keyed on content, not
// on explorer state: a walk that reaches the node with the same context and
// key reuses the string, whatever happened in between (a thaw, a
// re-exploration), and anything else rebuilds it. Reusing the string
// keeps the variables' own per-context caches (Var.KeyFor, the prior plan)
// hitting on a pointer-equal comparison.
type ctxMemo struct {
	in  string // the input context
	key uint32 // the child's digest (prefix nodes); unused elsewhere
	out string // the derived context; "" until first built
}

// FNV-1a, 32-bit: the parameters of hash/fnv's New32a.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// digest summarises the frozen choices of a subtree compactly for use as a
// context component: the FNV-1a hash of "ID=label;" for each variable in
// walk order, equal to hash/fnv's New32a over the same bytes. It is
// formatted (as %08x) only when a context string is built from it.
//
//astra:hotpath
func digest(t *Tree) uint32 {
	h := uint32(fnvOffset32)
	for _, v := range t.Vars() {
		h = fnvString(h, v.ID)
		h = (h ^ '=') * fnvPrime32
		h = fnvString(h, v.CurrentLabel())
		h = (h ^ ';') * fnvPrime32
	}
	return h
}

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// pin assigns a non-final context to a subtree and marks it unrecordable:
// it runs at its current (initialized) choices while an earlier prefix
// sibling is still exploring.
func (e *Explorer) pin(t *Tree, ctx string) {
	for _, v := range t.Vars() {
		v.ctx = ctx
		v.record = false
	}
	if t.comp != nil {
		e.applyTuple(t, t.comp.current)
	}
	for _, c := range t.Children {
		if c.Var == nil {
			e.pin(c, ctx)
		}
	}
}

// setupExhaustive treats the node's leaves as one composite variable over
// the cartesian product of their choices (§4.5.3: within an epoch the
// assignment is history-sensitive, so brute force is required).
func (e *Explorer) setupExhaustive(t *Tree, ctx string) bool {
	v := t.comp
	v.ctx = ctx
	v.record = false
	for _, c := range t.Children {
		c.Var.ctx = ctx
		c.Var.record = false
	}
	freezeChildren := func() {
		for _, c := range t.Children {
			c.Var.frozen = true
			c.Var.frozenCtx = ctx
		}
	}
	if v.frozen && v.frozenCtx == ctx {
		e.applyTuple(t, v.current)
		freezeChildren()
		return true
	}
	v.frozen = false
	plan := e.planFor(v)
	for i := range v.Labels {
		c := plan.visit(i)
		if plan.pruned(c) {
			continue
		}
		if !e.ix.Has(v.KeyFor(c)) {
			v.current = c
			v.record = true
			e.applyTuple(t, c)
			return false
		}
	}
	best, _, ok := e.ix.Best(ctx, v.ID, v.Labels)
	if !ok {
		panic("adapt: exhaustive node with no measurements")
	}
	v.current = best
	v.frozen = true
	v.frozenCtx = ctx
	e.notePriorOutcome(v, best)
	e.applyTuple(t, best)
	freezeChildren()
	return true
}

// applyTuple decomposes a composite choice index into the children's
// individual choices (first child most significant).
func (e *Explorer) applyTuple(t *Tree, idx int) {
	for i := len(t.Children) - 1; i >= 0; i-- {
		n := len(t.Children[i].Var.Labels)
		t.Children[i].Var.current = idx % n
		idx /= n
	}
}

// setupFork explores the policy variable's subtree to completion under each
// policy choice, takes one end-to-end validation measurement of the best
// configuration per choice, and finally freezes the policy at the fastest
// validated choice (§4.5.2). The cost-model prior is deliberately not
// consulted for the policy variable itself: fork policies exist to be
// validated end-to-end, and pruning one would skip exactly that validation.
// The subtree under each policy still benefits — its variables re-plan per
// policy context, and the model's features are context-free, so the prior
// transfers across the fork's branches.
func (e *Explorer) setupFork(t *Tree, ctx string) bool {
	policy := t.Children[0].Var
	sub := t.Children[1]
	policy.ctx = ctx
	policy.record = false
	if len(t.ctxs) != len(policy.Labels) {
		t.ctxs = make([]ctxMemo, len(policy.Labels))
	}
	// subCtx is the subtree's context under the current policy choice,
	// from the node's memo: slot c holds choice c's.
	subCtx := func() string {
		m := &t.ctxs[policy.current]
		if m.out == "" || m.in != ctx {
			m.in, m.out = ctx, ctx+"/"+policy.ID+"="+policy.CurrentLabel()
		}
		return m.out
	}
	if policy.frozen && policy.frozenCtx == ctx {
		e.setup(sub, subCtx())
		return true
	}
	policy.frozen = false
	for {
		subDone := e.setup(sub, subCtx())
		if !subDone {
			return false
		}
		// Subtree converged under this policy choice: validate the best
		// configuration end-to-end once, attributing the measurement to
		// the policy choice itself.
		if !e.ix.Has(policy.KeyFor(policy.current)) {
			policy.record = true
			return false
		}
		// Move to the next unmeasured policy choice, if any.
		advanced := false
		for c := range policy.Labels {
			if !e.ix.Has(policy.KeyFor(c)) {
				policy.current = c
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	best, _, ok := e.ix.Best(ctx, policy.ID, policy.Labels)
	if !ok {
		panic("adapt: fork with no validated policies")
	}
	policy.current = best
	policy.frozen = true
	policy.frozenCtx = ctx
	e.setup(sub, subCtx())
	return true
}
