package adapt

import "sort"

// Prior is a learned cost-model hook into the explorer (the AutoTVM-style
// "learning to optimize tensor programs" direction, see internal/costmodel
// and docs/COSTMODEL.md): before a variable's candidates are measured, the
// prior may reorder the visit sequence so the predicted-best is tried first,
// and prune candidates predicted to be dominated beyond a confidence margin.
// The explorer remains measurement-driven — a prior never decides a frozen
// choice, it only shapes which candidates get measured and in what order —
// so the safety properties of online exploration (the frozen choice is a
// measured best) are unchanged.
//
// Implementations must be deterministic: Plan is a pure function of the
// model state, and model state must depend only on the observation sequence.
// The explorer caches each variable's plan per context, so Plan is called
// once per (variable, context), not per trial.
type Prior interface {
	// Plan returns visit advice for varID's labels under ctx. The zero
	// value (nil Order) means "no advice": the explorer visits candidates
	// in label order and prunes nothing.
	Plan(ctx, varID string, labels []string) PriorPlan
	// Observe feeds one recorded measurement back into the model, in the
	// same (context, variable, label) coordinates Plan is queried with.
	Observe(ctx, varID, label string, us float64)
	// Invalidate marks the model's knowledge suspect — the explorer calls
	// it when a drift thaw evicts the measurements the model was trained
	// on, so post-drift re-exploration re-plans against decayed state that
	// fresh observations can quickly overwrite.
	Invalidate()
}

// PriorPlan is a prior's advice for one variable in one context.
type PriorPlan struct {
	// Order is a permutation of the label indices giving the visit order
	// (predicted-fastest first). nil means label order.
	Order []int
	// Pruned marks label indices the explorer should not measure at all.
	// nil means nothing pruned. A pruned candidate can still win later:
	// if every unpruned candidate's measurement is evicted and re-taken
	// the pruned ones stay skipped, but Best only ranks measured keys, so
	// a pruned candidate is simply absent, never mis-ranked.
	Pruned []bool
}

// sanitizePlan validates a prior's advice against the variable's label
// count. A malformed plan (wrong lengths, not a permutation, everything
// pruned) is discarded wholesale — a buggy or hostile prior must never be
// able to wedge exploration.
func sanitizePlan(p PriorPlan, n int) PriorPlan {
	if p.Order != nil {
		if len(p.Order) != n {
			return PriorPlan{}
		}
		seen := make([]bool, n)
		for _, c := range p.Order {
			if c < 0 || c >= n || seen[c] {
				return PriorPlan{}
			}
			seen[c] = true
		}
	}
	if p.Pruned != nil {
		if len(p.Pruned) != n {
			return PriorPlan{}
		}
		unpruned := 0
		for _, pr := range p.Pruned {
			if !pr {
				unpruned++
			}
		}
		if unpruned == 0 {
			return PriorPlan{}
		}
	}
	return p
}

// PriorStats counts prior outcomes across a session: how often the
// predicted-best candidate (Order[0]) turned out to be the measured best
// when a variable froze, how many candidate measurements pruning skipped,
// and how far off the predicted ranking was when it missed.
type PriorStats struct {
	// Hits counts freezes where the measured best was the prior's top
	// prediction; Misses the freezes where it was not.
	Hits   int
	Misses int
	// Pruned counts candidate measurements skipped by pruning.
	Pruned int
	// RankInversions sums, over misses, the position of the measured best
	// in the predicted order — 0 when the prior always ranked the winner
	// first.
	RankInversions int
}

// PriorStats returns the session's accumulated prior outcomes (zero when no
// prior is attached).
func (e *Explorer) PriorStats() PriorStats { return e.priorStats }

// planFor returns the (sanitized, cached) prior plan for v under its
// current context. With no prior attached it returns the zero plan, which
// the setup loops treat as label-order/no-pruning.
func (e *Explorer) planFor(v *Var) PriorPlan {
	if e.prior == nil {
		return PriorPlan{}
	}
	if v.planCtx != v.ctx || !v.planOK {
		v.plan = sanitizePlan(e.prior.Plan(v.ctx, v.ID, v.Labels), len(v.Labels))
		v.planCtx = v.ctx
		v.planOK = true
		for c, pr := range v.plan.Pruned {
			if pr {
				e.priorStats.Pruned++
				if e.mPriorPruned != nil {
					e.mPriorPruned.Inc()
				}
				if e.prunedEver == nil {
					e.prunedEver = map[string]bool{}
				}
				e.prunedEver[v.ID+"="+v.Labels[c]] = true
			}
		}
	}
	return v.plan
}

// PrunedChoices returns every "varID=label" the prior pruned at any point
// of the session (any context), sorted. It is the safety audit trail: a
// choice absent from this set was always eligible for measurement, so a
// frozen binding can only have beaten candidates the prior left in play or
// ones it explicitly pruned — and the latter are all listed here.
func (e *Explorer) PrunedChoices() []string {
	out := make([]string, 0, len(e.prunedEver))
	for k := range e.prunedEver { // lint:ok map-range sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// visit returns the i-th candidate in plan order.
func (p PriorPlan) visit(i int) int {
	if p.Order == nil {
		return i
	}
	return p.Order[i]
}

// pruned reports whether candidate c is pruned.
func (p PriorPlan) pruned(c int) bool { return p.Pruned != nil && p.Pruned[c] }

// notePriorOutcome scores a freeze decision against the plan that guided it
// and updates the hit/miss/rank-inversion counters.
func (e *Explorer) notePriorOutcome(v *Var, best int) {
	if e.prior == nil || v.plan.Order == nil {
		return
	}
	pos := 0
	for i, c := range v.plan.Order {
		if c == best {
			pos = i
			break
		}
	}
	if pos == 0 {
		e.priorStats.Hits++
		if e.mPriorHits != nil {
			e.mPriorHits.Inc()
		}
		return
	}
	e.priorStats.Misses++
	e.priorStats.RankInversions += pos
	if e.mPriorMisses != nil {
		e.mPriorMisses.Inc()
	}
	if e.mPriorRankInv != nil {
		e.mPriorRankInv.Add(float64(pos))
	}
}

// invalidatePlans drops every cached plan (and tells the prior), so the next
// walk re-plans against the prior's current state.
func (e *Explorer) invalidatePlans() {
	if e.prior == nil {
		return
	}
	e.prior.Invalidate()
	for _, v := range e.vars {
		v.planOK = false
		v.plan = PriorPlan{}
	}
}
