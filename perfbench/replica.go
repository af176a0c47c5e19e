package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"astra/internal/adapt"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/profile"
	"astra/internal/verify"
	"astra/internal/wire"
)

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	ops   int
}

// span is one timed call into a layer, in nanoseconds since the tracer
// started. Op numbers the replica step the call belongs to, whose own span
// has layer "op"; set-up calls carry op -1. Layer spans never nest, so a
// layer's self time is its spans' total.
type span struct {
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) end(layer string, op int, start int64) {
	tr.spans = append(tr.spans, span{Layer: layer, Op: op, StartNs: start, EndNs: tr.now()})
}

// layerTime is one layer's total span time and span count.
type layerTime struct {
	total time.Duration
	n     int
}

func (tr *tracer) byLayer() map[string]layerTime {
	out := map[string]layerTime{}
	for _, s := range tr.spans {
		l := out[s.Layer]
		l.total += time.Duration(s.EndNs - s.StartNs)
		l.n++
		out[s.Layer] = l
	}
	return out
}

// writeSpans writes the spans as JSON lines to spans-<workload>.jsonl in
// the spans directory.
func (cfg config) writeSpans(tr *tracer) error {
	if cfg.spansDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(cfg.spansDir, "spans-"+cfg.workload+".jsonl"))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// replica does a wire.Session's work from outside, through the same public
// calls in the same order, each layer's call under a span. Set-up is
// wire.NewSession's compile; a step is Session.Step: the verifier's
// Signature and, once per distinct binding, CheckConfig; rank 0's
// RunBatch; the peers' RunBatch; the explorer's Observe and Advance.
type replica struct {
	tr       *tracer
	plan     *enumerate.Plan
	runner   *wire.Runner
	peers    []*wire.Runner
	exp      *adapt.Explorer // nil when the plan has no adaptive variables
	ix       *profile.Index
	spec     verify.Spec
	seen     map[string]bool
	trials   int
	findings int
	// rank 0's batch counters
	batches, kernels, events, commKernels int
	simUs                                 float64
}

// newReplica builds and compiles a shape. snap, when not nil, is a profile
// snapshot the index loads first.
func newReplica(tr *tracer, sh shape, snap []byte) (*replica, error) {
	s := tr.now()
	m := sh.build()
	tr.end("models.build", -1, s)
	ix := profile.NewIndex()
	if snap != nil {
		s = tr.now()
		err := ix.Load(bytes.NewReader(snap))
		tr.end("profile.load", -1, s)
		if err != nil {
			return nil, fmt.Errorf("loading the profile snapshot: %w", err)
		}
	}
	cfg := sh.sessionConfig(ix)
	s = tr.now()
	plan := enumerate.Enumerate(m.G, cfg.Options)
	tr.end("enumerate", -1, s)
	rcfg := cfg.Runner
	rcfg.Profile = true
	rcfg.Comm = cfg.Comm
	r := &replica{
		tr:     tr,
		plan:   plan,
		runner: wire.NewRunner(plan, gpusim.NewDevice(cfg.Device), rcfg),
		ix:     ix,
		spec: verify.Spec{
			Workers:   cfg.Comm.Workers,
			BucketKB:  cfg.Comm.DefaultBucketKB,
			Placement: cfg.Comm.DefaultPlacement,
			MaxFusion: cfg.Runner.MaxFusion,
		},
		seen: map[string]bool{},
	}
	for rank := 1; rank < cfg.Comm.Workers; rank++ {
		// Peer device seeds as wire.NewSession derives them.
		dcfg := cfg.Device
		dcfg.Seed = cfg.Device.Seed + uint64(rank)*0x9E3779B97F4A7C15
		prcfg := rcfg
		prcfg.Comm.Rank = rank
		r.peers = append(r.peers, wire.NewRunner(plan, gpusim.NewDevice(dcfg), prcfg))
	}
	if plan.Tree != nil {
		s = tr.now()
		r.exp = adapt.NewExplorerPrior(plan.Tree, ix, cfg.ProfileContext, cfg.Prior)
		tr.end("adapt.setup", -1, s)
	}
	s = tr.now()
	rep := verify.CheckGraph(plan.G)
	rep.Merge(verify.CheckUnits(plan))
	for _, a := range plan.Allocs {
		rep.Merge(verify.CheckStrategy(a, plan.G.Values, plan.Requests))
	}
	tr.end("verify.plan", -1, s)
	r.findings += len(rep.Findings)
	return r, nil
}

func (r *replica) done() bool { return r.exp == nil || r.exp.Done() }

// step is one Session.Step.
func (r *replica) step() wire.BatchResult {
	tr := r.tr
	op := tr.ops
	tr.ops++
	o := tr.now()
	exploring := !r.done()

	s := tr.now()
	sig := verify.Signature(r.plan)
	tr.end("verify.signature", op, s)
	if !r.seen[sig] {
		r.seen[sig] = true
		s = tr.now()
		rep := verify.CheckConfig(r.plan, r.spec)
		tr.end("verify.config", op, s)
		r.findings += len(rep.Findings)
	}

	s = tr.now()
	res := r.runner.RunBatch(nil, nil)
	tr.end("wire.batch", op, s)
	r.batches++
	r.kernels += res.Kernels
	r.events += res.Events
	r.commKernels += res.CommKernels
	r.simUs += res.TotalUs

	// On a single worker this span wraps no call and reads the tracer's
	// own cost.
	s = tr.now()
	if len(r.peers) > 0 {
		res.WorkerUs = append(res.WorkerUs, res.TotalUs)
		for _, p := range r.peers {
			pr := p.RunBatch(nil, nil)
			res.WorkerUs = append(res.WorkerUs, pr.TotalUs)
			res.TotalUs = max(res.TotalUs, pr.TotalUs)
		}
	}
	tr.end("distsim.peers", op, s)

	// Likewise on a wired step, which does no exploration bookkeeping.
	s = tr.now()
	if exploring {
		r.exp.Observe(res.Metrics)
		r.exp.Advance()
		r.trials++
	}
	tr.end("adapt.trial", op, s)
	tr.end("op", op, o)
	return res
}

// check fails the run when the replica's explorer got stuck or the
// verifier found anything.
func (r *replica) check(t *tally, name string) {
	if r.exp != nil {
		t.check(r.exp.Err() == nil, "%s: replica explorer error: %v", name, r.exp.Err())
	}
	t.check(r.findings == 0, "%s: replica found %d verifier findings", name, r.findings)
}

// roundTrip saves the replica's profile index and loads the snapshot into
// a fresh index under a profile.load span: the load wired-dp's set-up
// pays, here on an index explored cold.
func (r *replica) roundTrip(t *tally) error {
	var buf bytes.Buffer
	if err := r.ix.Save(&buf); err != nil {
		return fmt.Errorf("saving a profile snapshot: %w", err)
	}
	fresh := profile.NewIndex()
	s := r.tr.now()
	err := fresh.Load(&buf)
	r.tr.end("profile.load", -1, s)
	if err != nil {
		return fmt.Errorf("loading a profile snapshot: %w", err)
	}
	t.check(fresh.Len() == r.ix.Len(), "profile snapshot holds %d keys, the index %d", fresh.Len(), r.ix.Len())
	return nil
}

// replicaTotals sums the counters of finished replicas.
type replicaTotals struct {
	replicas, batches, kernels, events, commKernels int
	simUs                                           float64
	poolReused, poolAllocated                       int64
	hitRate                                         float64 // summed over replicas
	keys                                            int
}

func (tt *replicaTotals) add(r *replica) {
	tt.replicas++
	tt.batches += r.batches
	tt.kernels += r.kernels
	tt.events += r.events
	tt.commKernels += r.commKernels
	tt.simUs += r.simUs
	for _, rn := range append([]*wire.Runner{r.runner}, r.peers...) {
		reused, allocated := rn.Dev.PoolCounters()
		tt.poolReused += reused
		tt.poolAllocated += allocated
	}
	tt.hitRate += r.ix.HitRate()
	tt.keys += r.ix.Len()
}

// tracedRun is what a traced run measured besides its spans.
type tracedRun struct {
	base   *tally // the untraced segments
	traced *tally // the traced segments
	reps   replicaTotals
	serve  *servePhases // serve-mix only
}

// finish writes the spans and reports the per-layer metrics.
func (x tracedRun) finish(cfg config, tr *tracer, digest string) (*report, error) {
	if err := cfg.writeSpans(tr); err != nil {
		return nil, err
	}
	x.base.failed += x.traced.failed
	return x.base.report(layerMetrics(tr, x), digest, len(x.traced.opMs))
}

// layerMetrics computes the per-layer metrics. Every metric is reported on
// every workload: a layer the workload never reaches reads 0, and a span
// that wraps no call on this workload reads the tracer's own cost.
func layerMetrics(tr *tracer, x tracedRun) map[string]metric {
	L := tr.byLayer()
	mean := func(layer string, unit time.Duration) float64 {
		l := L[layer]
		return ratio(float64(l.total)/float64(unit), float64(l.n))
	}
	share := func(layers ...string) float64 {
		var sum time.Duration
		for _, l := range layers {
			sum += L[l].total
		}
		return ratio(float64(sum), float64(L["op"].total))
	}
	reps := x.reps
	batches := float64(reps.batches)
	hitRate := ratio(reps.hitRate, float64(reps.replicas))
	keys := ratio(float64(reps.keys), float64(reps.replicas))
	sv := x.serve
	if sv == nil {
		sv = &servePhases{}
	} else {
		hitRate, keys = sv.fleetHitRate, float64(sv.fleetKeys)
	}
	untraced := ratio(float64(len(x.base.opMs)), x.base.timed.Seconds())
	traced := ratio(float64(len(x.traced.opMs)), x.traced.timed.Seconds())
	rt := x.base.rt
	return map[string]metric{
		"models.build_ms":                {mean("models.build", time.Millisecond), "ms"},
		"enumerate.plan_ms":              {mean("enumerate", time.Millisecond), "ms"},
		"verify.plan_ms":                 {mean("verify.plan", time.Millisecond), "ms"},
		"verify.signature_us":            {mean("verify.signature", time.Microsecond), "us"},
		"verify.config_ms":               {mean("verify.config", time.Millisecond), "ms"},
		"verify.configs":                 {float64(L["verify.config"].n), "count"},
		"verify.dedup_ratio":             {ratio(float64(L["verify.config"].n), float64(L["op"].n)), "ratio"},
		"verify.op_share":                {share("verify.signature", "verify.config"), "ratio"},
		"wire.batch_ms":                  {mean("wire.batch", time.Millisecond), "ms"},
		"wire.op_share":                  {share("wire.batch"), "ratio"},
		"wire.kernels_per_batch":         {ratio(float64(reps.kernels), batches), "count"},
		"wire.events_per_batch":          {ratio(float64(reps.events), batches), "count"},
		"wire.sim_us_per_host_ms":        {ratio(reps.simUs, ms(L["wire.batch"].total)), "us/ms"},
		"distsim.peer_batch_ms":          {mean("distsim.peers", time.Millisecond), "ms"},
		"distsim.comm_kernels_per_batch": {ratio(float64(reps.commKernels), batches), "count"},
		"gpusim.pool_reuse_ratio":        {ratio(float64(reps.poolReused), float64(reps.poolReused+reps.poolAllocated)), "ratio"},
		"adapt.trial_us":                 {mean("adapt.trial", time.Microsecond), "us"},
		"adapt.op_share":                 {share("adapt.trial"), "ratio"},
		"profile.load_ms":                {mean("profile.load", time.Millisecond), "ms"},
		"profile.hit_rate":               {hitRate, "ratio"},
		"profile.keys":                   {keys, "count"},
		"serve.transport_share":          {sv.share(sv.transport), "ratio"},
		"serve.queue_wait_share":         {sv.share(sv.queue), "ratio"},
		"serve.compile_share":            {sv.share(sv.compile), "ratio"},
		"serve.explore_share":            {sv.share(sv.explore), "ratio"},
		"serve.wired_share":              {sv.share(sv.wired), "ratio"},
		"serve.warm_hit_ratio":           {ratio(float64(sv.warm), float64(sv.jobs)), "ratio"},
		"serve.store_keys":               {float64(sv.storeKeys), "count"},
		"go.gc_cpu_share":                {ratio(rt.gcCPUs, rt.totalCPUs), "ratio"},
		"go.gc_cycles":                   {rt.gcCycles, "count"},
		"trace.attributed_share":         {share("verify.signature", "verify.config", "wire.batch", "distsim.peers", "adapt.trial"), "ratio"},
		"trace.overhead_pct":             {100 * (ratio(untraced, traced) - 1), "%"},
	}
}
