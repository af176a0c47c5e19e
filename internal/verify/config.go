package verify

import (
	"fmt"
	"strings"

	"astra/internal/adapt"
	"astra/internal/enumerate"
)

// CheckSchedule runs the configuration-level analyses over a symbolic
// schedule: deadlock, cross-stream races, end-of-batch synchronization,
// fusion legality, and comm-bucket coverage and ordering. s must be the
// lowering of the plan's current bindings: findings carry
// BindingLabel(p) as their Config.
func CheckSchedule(p *enumerate.Plan, s *Schedule) *Report {
	r := &Report{}
	f := findings{p: p, r: r}
	hb := simulate(s)
	if hb.deadlocked {
		for _, bl := range hb.blocked {
			f.add("sched.deadlock", bl)
		}
		// With streams stalled, no other temporal property is meaningful.
		return r
	}

	// Races: every unit dependency needs a happens-before edge from the
	// dependency's last op to the dependent's first.
	for _, u := range p.Units {
		first, ok := s.FirstOp[u]
		if !ok {
			f.add("sched.race", fmt.Sprintf("unit %s never dispatched", u.ID))
			continue
		}
		for _, d := range u.Deps {
			last, ok := s.LastOp[d]
			if !ok {
				continue // reported as never-dispatched above
			}
			if !hb.happensBefore(last, first) {
				f.add("sched.race", fmt.Sprintf("unit %s (stream %d) reads unit %s (stream %d) without a happens-before edge", u.ID, first.Stream, d.ID, last.Stream))
			}
		}
	}

	// End-of-batch synchronization: every kernel must be ordered before the
	// batch-end marker on stream 0 — the super-epoch barriers join the
	// compute streams and the explicit comm join covers the exchange; a
	// dropped barrier shows up here.
	end := Pos{Stream: 0, Index: len(s.Streams[0]) - 1}
	if end.Index < 0 || s.Streams[0][end.Index].Kind != OpEnd {
		f.add("sched.endsync", "schedule has no batch-end marker on stream 0")
	} else {
		for st, ops := range s.Streams {
			for i, op := range ops {
				if op.Kind != OpKernel && op.Kind != OpCopy {
					continue
				}
				if st == 0 && i < end.Index {
					continue // program order
				}
				if !hb.happensBefore(Pos{Stream: st, Index: i}, end) {
					f.add("sched.endsync", fmt.Sprintf("kernel %q on stream %d is not synchronized before batch end", op.Label(), st))
				}
			}
		}
	}

	// Fusion legality: a fused chunk reads its operands as one block, which
	// is only sound if the active strategy lays the group's request out
	// contiguously or a gather copy staged the chunk immediately before.
	for st, ops := range s.Streams {
		for i, op := range ops {
			if op.Kind != OpKernel || op.Group == nil || op.Members < 2 {
				continue
			}
			if op.Group.ReqID != "" && s.Alloc.Contiguous(op.Group.ReqID) {
				continue
			}
			if i > 0 && ops[i-1].Kind == OpCopy && ops[i-1].Group == op.Group {
				continue
			}
			f.add("sched.fusion", fmt.Sprintf("fused chunk of %s (%d members, stream %d) has non-contiguous operands and no gather copy", op.Group.ID, op.Members, st))
		}
	}

	checkComm(p, s, hb, &f)
	return r
}

// findings adds one schedule check's findings to its report. Their Config
// label is formed on the first one, so a clean check never builds it.
type findings struct {
	p     *enumerate.Plan
	r     *Report
	label string
}

func (f *findings) add(check, detail string) {
	if f.label == "" {
		f.label = BindingLabel(f.p)
	}
	f.r.Add(check, f.label, detail)
}

// checkComm validates the gradient exchange: every gradient in exactly one
// bucket (the schedule's packing must match an independent repacking), each
// bucket issuing exactly 2·(n−1) ring steps on one stream, and each
// bucket's first step ordered after every one of its producing units.
func checkComm(p *enumerate.Plan, s *Schedule, hb *hbResult, f *findings) {
	if s.Workers < 2 || len(p.Grads) == 0 {
		if len(s.Buckets) > 0 {
			f.add("comm.coverage", fmt.Sprintf("schedule has %d buckets but no gradient exchange is configured", len(s.Buckets)))
		}
		return
	}
	want := packBuckets(p, s.BucketCapBytes)
	if len(s.Buckets) != len(want) {
		f.add("comm.coverage", fmt.Sprintf("schedule packs %d buckets, repacking gives %d", len(s.Buckets), len(want)))
	}
	var gotGrads, wantGrads int
	for _, b := range s.Buckets {
		gotGrads += b.Grads
	}
	for _, b := range want {
		wantGrads += b.Grads
	}
	if gotGrads != len(p.Grads) || wantGrads != len(p.Grads) {
		f.add("comm.coverage", fmt.Sprintf("buckets cover %d gradients, plan has %d", gotGrads, len(p.Grads)))
	}
	for i := range s.Buckets {
		if i < len(want) && (s.Buckets[i].Bytes != want[i].Bytes || s.Buckets[i].Grads != want[i].Grads) {
			f.add("comm.coverage", fmt.Sprintf("bucket %d packs %d gradients / %d bytes, repacking gives %d / %d", i, s.Buckets[i].Grads, s.Buckets[i].Bytes, want[i].Grads, want[i].Bytes))
		}
	}

	// Ring steps: collect each bucket's step kernels.
	steps := make(map[int][]Pos)
	for st, ops := range s.Streams {
		for i, op := range ops {
			if op.Kind == OpKernel && op.Bucket >= 0 {
				steps[op.Bucket] = append(steps[op.Bucket], Pos{Stream: st, Index: i})
			}
		}
	}
	wantSteps := 2 * (s.Workers - 1)
	for i, b := range s.Buckets {
		ps := steps[i]
		if len(ps) != wantSteps {
			f.add("comm.steps", fmt.Sprintf("bucket %d has %d ring steps, want %d", i, len(ps), wantSteps))
		}
		if len(ps) == 0 {
			continue
		}
		stream := ps[0].Stream
		first := ps[0]
		for _, pos := range ps[1:] {
			if pos.Stream != stream {
				f.add("comm.steps", fmt.Sprintf("bucket %d spreads ring steps over streams %d and %d", i, stream, pos.Stream))
			}
			if pos.Index < first.Index && pos.Stream == first.Stream {
				first = pos
			}
		}
		// Launch-after-producer: the first ring step must be ordered after
		// the last op of every unit producing a gradient in the bucket.
		for _, u := range b.Units {
			last, ok := s.LastOp[u]
			if !ok {
				continue
			}
			if !hb.happensBefore(last, first) {
				f.add("comm.order", fmt.Sprintf("bucket %d launches before its producer %s (stream %d) completes", i, u.ID, last.Stream))
			}
		}
	}
	for bi := range steps {
		if bi >= len(s.Buckets) {
			f.add("comm.coverage", fmt.Sprintf("ring steps reference unknown bucket %d", bi))
		}
	}
}

// packBuckets independently repacks the plan's gradients under a byte cap
// in dispatch order. It is the coverage check's oracle: the lowering packs
// on its own, so a packing bug there diverges from this and fails the
// comparison.
func packBuckets(p *enumerate.Plan, capBytes int64) []Bucket {
	var out []Bucket
	var cur Bucket
	flush := func() {
		if cur.Grads == 0 {
			return
		}
		out = append(out, cur)
		cur = Bucket{}
	}
	for _, g := range p.Grads {
		cur.Bytes += g.Bytes
		cur.Grads++
		if len(cur.Units) == 0 || cur.Units[len(cur.Units)-1] != g.Unit {
			cur.Units = append(cur.Units, g.Unit)
		}
		if capBytes > 0 && cur.Bytes >= capBytes {
			flush()
		}
	}
	flush()
	return out
}

// CheckConfig verifies the plan's *current* variable bindings: it lowers
// them to the op program the wirer would issue and runs every
// configuration-level analysis on it.
func CheckConfig(p *enumerate.Plan, spec Spec) *Report {
	r := CheckSchedule(p, BuildSchedule(p, spec))
	r.Configs = 1
	return r
}

// Signature returns a compact key of the plan's current variable choices,
// used to deduplicate configuration checks across a sweep or a session.
func Signature(p *enumerate.Plan) string {
	if p.Tree == nil {
		return "static"
	}
	var sig strings.Builder
	for _, v := range p.Tree.Vars() {
		fmt.Fprintf(&sig, "%d,", v.Current())
	}
	return sig.String()
}

// BindingLabel renders the plan's current non-default variable bindings
// compactly ("defaults" when every variable sits at choice 0).
func BindingLabel(p *enumerate.Plan) string {
	if p.Tree == nil {
		return "static"
	}
	var parts []string
	for _, v := range p.Tree.Vars() {
		if v.Current() != 0 {
			parts = append(parts, v.ID+"="+v.CurrentLabel())
		}
	}
	if len(parts) == 0 {
		return "defaults"
	}
	return strings.Join(parts, " ")
}

// CheckPlan runs the plan-level checks: the graph IR, the schedule-unit
// partition, and every allocation strategy the explorer could pick.
func CheckPlan(p *enumerate.Plan) *Report {
	r := CheckGraph(p.G)
	r.Merge(CheckUnits(p))
	for _, a := range p.Allocs {
		r.Merge(CheckStrategy(a, p.G.Values, p.Requests))
	}
	return r
}

// VerifyPlan runs the complete analysis suite: the plan-level checks
// (CheckPlan) plus a structural sweep of the configuration space.
func VerifyPlan(p *enumerate.Plan, spec Spec) *Report {
	r := CheckPlan(p)
	r.Merge(SweepConfigs(p, spec))
	return r
}

// SweepConfigs checks one configuration per structurally distinct point of
// the space, dimension by dimension: every allocation strategy crossed with
// every fusion-chunk choice (their product decides where gather copies go),
// every within-epoch stream-assignment tuple (the Exhaustive products the
// explorer walks), and every comm bucket × placement pair. Kernel-library
// variables are skipped: the library changes which kernel runs, never the
// schedule's structure. Variable bindings are restored on return.
func SweepConfigs(p *enumerate.Plan, spec Spec) *Report {
	r := &Report{}
	var vars []*adapt.Var
	if p.Tree != nil {
		vars = p.Tree.Vars()
	}
	saved := make([]int, len(vars))
	for i, v := range vars {
		saved[i] = v.Current()
	}
	defer func() {
		for i, v := range vars {
			v.SetChoice(saved[i])
		}
	}()
	for _, v := range vars {
		v.SetChoice(0)
	}

	seen := map[string]bool{}
	// One schedule is re-lowered for every configuration, as the wirer
	// re-lowers its program.
	s := &Schedule{}
	check := func() {
		sig := Signature(p)
		if seen[sig] {
			return
		}
		seen[sig] = true
		r.Configs++
		s.Lower(p, spec)
		r.Merge(CheckSchedule(p, s))
	}

	check() // all-defaults baseline

	// Allocation × fusion chunking: copy insertion depends on both.
	allocN := 1
	if p.AllocVar != nil {
		allocN = len(p.AllocVar.Labels)
	}
	for ai := 0; ai < allocN; ai++ {
		if p.AllocVar != nil {
			p.AllocVar.SetChoice(ai)
		}
		check()
		for _, grp := range p.Groups {
			cv := p.ChunkVars[grp]
			if cv == nil {
				continue
			}
			for ci := range cv.Labels {
				cv.SetChoice(ci)
				check()
			}
			cv.SetChoice(0)
		}
	}
	if p.AllocVar != nil {
		p.AllocVar.SetChoice(0)
	}

	// Stream assignment: the full Exhaustive tuple product within each
	// epoch (bounded by the enumerator's per-epoch tuple cap), other epochs
	// at their defaults — matching the explorer's one-epoch-at-a-time walk.
	for _, se := range p.Supers {
		for _, ep := range se.Epochs {
			var evs []*adapt.Var
			for _, cls := range ep.Classes {
				if v := p.StreamVars[cls]; v != nil {
					evs = append(evs, v)
				}
			}
			if len(evs) == 0 {
				continue
			}
			idx := make([]int, len(evs))
			for {
				for i, v := range evs {
					v.SetChoice(idx[i])
				}
				check()
				k := 0
				for k < len(idx) {
					idx[k]++
					if idx[k] < len(evs[k].Labels) {
						break
					}
					idx[k] = 0
					k++
				}
				if k == len(idx) {
					break
				}
			}
			for _, v := range evs {
				v.SetChoice(0)
			}
		}
	}

	// Communication: every bucket cap × placement.
	if p.CommBucketVar != nil && p.CommPlaceVar != nil {
		for bi := range p.CommBucketVar.Labels {
			p.CommBucketVar.SetChoice(bi)
			for pi := range p.CommPlaceVar.Labels {
				p.CommPlaceVar.SetChoice(pi)
				check()
			}
		}
		p.CommBucketVar.SetChoice(0)
		p.CommPlaceVar.SetChoice(0)
	}
	return r
}
