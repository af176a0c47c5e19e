package costmodel

import (
	"math"
	"sort"

	"astra/internal/adapt"
)

// The pruning rule's fixed thresholds.
const (
	// marginFrac is the domination margin: a candidate is pruned only when
	// its predicted cost exceeds the predicted best by more than this
	// fraction (log-space ratio, predicted ≥35% slower). The margin is the
	// safety knob — it must exceed the model's relative error for the true
	// best to survive pruning.
	marginFrac = 0.35
	// minSurvivors is the K-survivor valve: the top-K candidates of the
	// predicted order are never pruned, whatever the margin says, so a
	// maximally wrong model still leaves a measured choice between
	// alternatives.
	minSurvivors = 2
	// maxPruneLevel bounds which backoff levels are trusted for pruning:
	// candidates whose prediction (or whose best rival's prediction) came
	// from a level above it are ranked but never pruned — shape neighbours
	// may prune, the global L2 class stats may only rank.
	maxPruneLevel = 1
)

// Planner adapts a Model to the adapt.Prior interface for one session: it
// answers the explorer's plan queries from the model's predictions under
// the session's Meta, and routes the explorer's measurements back into the
// model. Planners are cheap; models are the shared state (one per tenant in
// the serve layer, one per harness cell). Plan is a pure function of the
// model state, so sessions stay deterministic.
type Planner struct {
	model *Model
	meta  Meta
	prune bool
}

// NewPlanner binds a model to one session's metadata. With prune false the
// planner only trains: plans are empty, so exploration order and candidate
// set are exactly what they would be with no prior — the donor/teacher
// configuration, and the always-safe default for sessions that must stay
// comparable to prior-free baselines (the serve layer's default). With
// prune true it ranks candidate visits by predicted cost and prunes those
// predicted to be dominated beyond the margin, subject to the survivor
// valve — the trials-to-freeze saver.
func NewPlanner(model *Model, meta Meta, prune bool) *Planner {
	return &Planner{model: model, meta: meta, prune: prune}
}

// Observe implements adapt.Prior: the explorer's recorded measurements
// train the model incrementally, pruning or not — so a cold session is
// automatically the next session's teacher, and post-drift re-measurements
// refresh the prior while re-exploration is still running.
func (p *Planner) Observe(ctx, varID, label string, us float64) {
	p.model.Observe(p.meta, varID, label, us)
}

// Invalidate implements adapt.Prior: a drift thaw decays the model's
// observation weights so the stale knowledge yields quickly to the
// re-measurements Observe is about to stream in.
func (p *Planner) Invalidate() { p.model.Decay() }

// Plan implements adapt.Prior: rank and prune varID's candidates by
// predicted cost when the planner prunes; otherwise, and for variables the
// model knows nothing about, the zero plan (label order, nothing pruned).
// The context is unused — the model's features are deliberately
// context-free (see TrainIndex).
func (p *Planner) Plan(ctx, varID string, labels []string) adapt.PriorPlan {
	if !p.prune || len(labels) < 2 {
		return adapt.PriorPlan{}
	}
	type cand struct {
		idx   int
		pred  float64
		level int
		ok    bool
	}
	cands := make([]cand, len(labels))
	known := 0
	for i, l := range labels {
		pred, level, ok := p.model.Predict(p.meta, varID, l)
		cands[i] = cand{idx: i, pred: pred, level: level, ok: ok}
		if ok {
			known++
		}
	}
	if known == 0 {
		return adapt.PriorPlan{}
	}
	// Predicted candidates first (fastest first), unpredicted ones after in
	// label order; ties break on label index. Fully deterministic.
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.ok != b.ok {
			return a.ok
		}
		if a.ok && a.pred != b.pred {
			return a.pred < b.pred
		}
		return a.idx < b.idx
	})
	plan := adapt.PriorPlan{Order: make([]int, len(cands))}
	for i, c := range cands {
		plan.Order[i] = c.idx
	}
	// Prune beyond the margin. Only predictions from trusted levels prune;
	// the best trusted prediction is the reference. Unpredicted candidates
	// are never pruned (no evidence either way), and the top-K of the
	// predicted order survive unconditionally.
	best := math.Inf(1)
	for _, c := range cands {
		if c.ok && c.level <= maxPruneLevel && c.pred < best {
			best = c.pred
		}
	}
	if math.IsInf(best, 1) {
		return plan
	}
	margin := math.Log1p(marginFrac)
	pruned := make([]bool, len(labels))
	any := false
	for rank, c := range cands {
		if rank < minSurvivors {
			continue
		}
		if c.ok && c.level <= maxPruneLevel && c.pred-best > margin {
			pruned[c.idx] = true
			any = true
		}
	}
	if any {
		plan.Pruned = pruned
	}
	return plan
}
