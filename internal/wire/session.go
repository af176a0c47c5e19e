package wire

import (
	"fmt"
	"maps"
	"math"

	"astra/internal/adapt"
	"astra/internal/analyze"
	"astra/internal/autodiff"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/graph"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/profile"
	"astra/internal/verify"
)

// Session ties the whole pipeline together for one training job: the
// enumerated plan, the simulated device, the profile index and the
// explorer. Exploration is work-conserving (§4.2): every exploration
// mini-batch performs the full, value-preserving training computation; only
// its schedule varies.
type Session struct {
	Model  *models.Model
	Plan   *enumerate.Plan
	Runner *Runner
	Ix     *profile.Index
	Exp    *adapt.Explorer // nil when the plan has no adaptive variables

	// Peers are the other workers of a multi-GPU session (ranks 1..n−1),
	// each with its own simulated device but issuing rank 0's program and
	// launch list — identical replicas stepping in lockstep, the way
	// synchronous data parallelism works. Step runs every peer and reports
	// the slowest worker.
	Peers []*Runner
	// workerUs backs BatchResult.WorkerUs: refilled every multi-worker
	// Step, valid until the next one.
	workerUs []float64

	// EvalValues runs the CPU value oracle each batch (slow; tests and
	// examples only — timing never depends on it).
	EvalValues bool
	// LearningRate > 0 applies SGD updates after each batch when
	// EvalValues is set, making the session a real training loop.
	LearningRate float64
	// Params holds the live parameter tensors when training with values.
	Params graph.Env

	batchSeed uint64
	// Trials counts exploration mini-batches (the Table 7 metric).
	Trials int
	// ExploreUs accumulates simulated time spent while exploring.
	ExploreUs float64
	// Batches counts every mini-batch run (exploring and wired).
	Batches int
	// ClockUs is the session-wide simulated clock: the sum of all batch
	// times. Telemetry spans are placed on this clock.
	ClockUs float64
	// ProfOverheadUs accumulates the CPU cost of profiling-only events
	// across the session (the numerator of the §6.4 <0.5% claim).
	ProfOverheadUs float64

	// Obs, when attached via Instrument, receives spans, metrics and trial
	// events for every batch.
	Obs *obs.Telemetry
	// wiredBatches counts wired batches, for the trace-detail cap.
	wiredBatches int

	// VerifyConfigs counts the programs the plan verifier checked this
	// session (the schedule-unit graph and allocation strategies are
	// checked once at wire time; each program the runner lowers is checked
	// before it runs). VerifyFindings counts the findings; any finding
	// folds into Err as a sticky *verify.Error.
	VerifyConfigs  int
	VerifyFindings int
	verified       int // the runner lowering last checked
	verifyErr      *verify.Error
	stepVerify     []string // findings surfaced by the current Step

	// Watchdog turns on the wired-phase drift watchdog (§4.6: hardware
	// drift — thermal throttling, clock autoboost decay — invalidates
	// frozen choices). It tracks an EWMA of wired batch times against the
	// expectation frozen at wiring time; sustained relative deviation
	// thaws the explorer so exploration resumes in-session,
	// work-conserving as ever.
	Watchdog bool
	// DriftEvents counts watchdog firings (thaw + re-explore) this session.
	DriftEvents   int
	driftExpectUs float64 // frozen expectation: first wired batch after (re-)wiring
	driftEWMA     float64
	driftBreach   int

	// meta is stamped onto every event-log record so astra-whatif -check
	// can rebuild an equivalent session from the log alone.
	meta obs.SessionMeta
}

// The drift watchdog's fixed tuning.
const (
	// driftAlpha is the EWMA smoothing factor.
	driftAlpha = 0.25
	// driftTolerance is the relative deviation of the EWMA from the wired
	// expectation that counts as a breach.
	driftTolerance = 0.08
	// driftPatience is how many consecutive breaching batches fire the
	// watchdog.
	driftPatience = 3
)

// observeWired feeds one wired batch time to the watchdog and reports
// whether it fired (thawing the explorer back into exploration).
func (s *Session) observeWired(batchUs float64) bool {
	if !s.Watchdog || s.Exp == nil {
		return false
	}
	if s.driftExpectUs == 0 {
		s.driftExpectUs = batchUs
		s.driftEWMA = batchUs
		s.driftBreach = 0
		return false
	}
	s.driftEWMA = driftAlpha*batchUs + (1-driftAlpha)*s.driftEWMA
	dev := math.Abs(s.driftEWMA-s.driftExpectUs) / s.driftExpectUs
	if dev <= driftTolerance {
		s.driftBreach = 0
		return false
	}
	s.driftBreach++
	if s.driftBreach < driftPatience {
		return false
	}
	// Sustained drift: the frozen configuration's measurements no longer
	// describe the hardware. Evict and re-explore.
	s.DriftEvents++
	s.driftExpectUs = 0
	s.driftEWMA = 0
	s.driftBreach = 0
	s.Exp.Thaw()
	if s.Obs != nil {
		s.Obs.Metrics.Counter("session.drift_events", "").Inc()
	}
	return true
}

// traceDetailBatches bounds how many exploration batches and how many
// wired batches export kernel-level detail (device spans, launch-queue
// spans, per-unit dispatch spans), keeping a full exploration session's
// trace loadable in Perfetto. Trial spans, counter tracks, metrics and
// event-log records always cover the whole session.
const traceDetailBatches = 8

// traceDetail reports whether the next batch gets kernel-level spans.
func (s *Session) traceDetail(exploring bool) bool {
	if exploring {
		return s.Batches < traceDetailBatches
	}
	return s.wiredBatches < traceDetailBatches
}

// SessionConfig configures NewSession.
type SessionConfig struct {
	Device       gpusim.Config
	Options      enumerate.Options
	Runner       RunnerConfig
	EvalValues   bool
	LearningRate float64
	// Comm enables multi-worker data-parallel stepping with event-level
	// gradient exchange (Comm.Workers >= 2). The enumerate Options must
	// carry the same worker count for the comm variables to exist.
	Comm CommConfig
	// Index warm-starts the session with a previously saved profile index
	// (profile.Index.Save/Load). The enumerator is deterministic, so a
	// snapshot from an earlier run of the same job makes exploration
	// resume where it left off — or skip straight to the wired schedule.
	Index *profile.Index
	// ProfileContext namespaces every profile key the session records or
	// probes under this base context (default ""). Sessions of different
	// jobs sharing one Index must set it to a per-job signature so their
	// keys never collide; sessions with the same ProfileContext warm-start
	// off each other's measurements (the paper's §5 shared profile store).
	// Exploration behaviour is invariant to its value.
	ProfileContext string
	// Prior attaches a learned cost model to the explorer (see
	// internal/costmodel and docs/COSTMODEL.md): candidate visit order is
	// re-ranked by predicted cost and dominated candidates may be pruned,
	// cutting trials-to-freeze; the explorer's measurements train the
	// model in return (including post-drift re-measurements, so a drift
	// thaw re-plans from refreshed knowledge). nil disables the prior;
	// frozen choices are measured bests either way.
	Prior adapt.Prior
}

// NewSession compiles the model and prepares the runtime.
func NewSession(m *models.Model, cfg SessionConfig) *Session {
	plan := enumerate.Enumerate(m.G, cfg.Options)
	dev := gpusim.NewDevice(cfg.Device)
	rcfg := cfg.Runner
	rcfg.Profile = true
	rcfg.Comm = cfg.Comm
	rcfg.Comm.Rank = 0
	ix := cfg.Index
	if ix == nil {
		ix = profile.NewIndex()
	}
	s := &Session{
		Model:        m,
		Plan:         plan,
		Ix:           ix,
		EvalValues:   cfg.EvalValues,
		LearningRate: cfg.LearningRate,
	}
	if plan.Tree != nil {
		s.Exp = adapt.NewExplorerPrior(plan.Tree, s.Ix, cfg.ProfileContext, cfg.Prior)
	}
	// The explorer has bound the first configuration, so the runner's
	// first lowering is the program the first batch issues.
	s.Runner = NewRunner(plan, dev, rcfg)
	for rank := 1; rank < cfg.Comm.Workers; rank++ {
		// Each peer simulates its own device. The seed is derived per
		// rank, so jitter and fault streams are independent across
		// workers (and still reproducible run to run); with noise off the
		// replicas are bit-identical. The program is rank 0's: the one
		// verifyStep checks is the one every rank issues.
		dcfg := cfg.Device
		dcfg.Seed = cfg.Device.Seed + uint64(rank)*0x9E3779B97F4A7C15
		prcfg := rcfg
		prcfg.Comm.Rank = rank
		s.Peers = append(s.Peers, newPeer(s.Runner, gpusim.NewDevice(dcfg), prcfg))
	}
	if cfg.EvalValues {
		s.Params = m.G.InitialParams()
	}
	s.meta = obs.SessionMeta{
		Model:            m.Name,
		ModelScale:       modelScale(m),
		PerDeviceBatch:   m.Cfg.Batch,
		Preset:           plan.Opts.Preset,
		NumStreams:       plan.Opts.NumStreams,
		Seed:             cfg.Device.Seed,
		PerOpCPUUs:       cfg.Runner.PerOpCPUUs,
		LaunchOverheadUs: cfg.Device.LaunchOverheadUs,
		KernelSetupUs:    cfg.Device.KernelSetupUs,
		Noisy:            cfg.Device.Autoboost || cfg.Device.Faults.Enabled(),
	}
	// Plan-level analyses run once, at wire time.
	s.recordVerify(verify.CheckPlan(plan))
	return s
}

// recordVerify folds one verifier report into the session: counters, the
// sticky error, and the per-step finding list telemetry attaches to the
// batch's event record.
func (s *Session) recordVerify(r *verify.Report) {
	s.VerifyConfigs += r.Configs
	if s.Obs != nil {
		s.Obs.Metrics.Counter("verify.configs", "").Add(float64(r.Configs))
	}
	if r.OK() {
		return
	}
	s.VerifyFindings += len(r.Findings)
	if s.verifyErr == nil {
		s.verifyErr = &verify.Error{}
	}
	s.verifyErr.Findings = append(s.verifyErr.Findings, r.Findings...)
	for _, f := range r.Findings {
		s.stepVerify = append(s.stepVerify, f.String())
	}
	if s.Obs != nil {
		s.Obs.Metrics.Counter("verify.findings", "").Add(float64(len(r.Findings)))
	}
}

// verifyStep checks the program the next batch runs whenever the runner
// has lowered a new one. The explorer advanced the variables at the end of
// the previous Step, so the runner's program for the current bindings is
// exactly what dispatches.
func (s *Session) verifyStep() {
	s.stepVerify = s.stepVerify[:0]
	prog := s.Runner.Program()
	if s.Runner.lowerings == s.verified {
		return
	}
	s.verified = s.Runner.lowerings
	r := verify.CheckSchedule(s.Plan, prog)
	r.Configs = 1
	s.recordVerify(r)
}

// Instrument attaches a telemetry bundle to the whole pipeline: the runner
// (dispatch spans), the explorer (trial/frozen-variable metrics) and the
// profile index (hit/miss counters). Subsequent Steps emit one trial span,
// one set of counter samples and one event-log record per mini-batch, and
// merge the device's kernel records into the session trace.
func (s *Session) Instrument(tel *obs.Telemetry) {
	s.Obs = tel
	s.Runner.Instrument(tel)
	s.Ix.Instrument(tel.Metrics)
	if s.Exp != nil {
		s.Exp.Instrument(tel.Metrics)
	}
	tel.Trace.SetProcessName(obs.PIDExplore, "exploration")
	// Pre-register the session metrics so an exposition before the first
	// batch already shows the schema.
	tel.Metrics.Histogram("batch.total_us", "simulated mini-batch time")
	tel.Metrics.Counter("session.sim_time_us", "total simulated session time")
	tel.Metrics.Counter("wirer.profiling_overhead_us", "CPU cost of profiling-only events")
	tel.Metrics.Counter("wirer.kernels", "kernels launched")
	tel.Metrics.Counter("wirer.events", "cudaEvents recorded or waited on")
	tel.Metrics.Gauge("profile.hit_rate", "profile index hit rate")
	tel.Metrics.Gauge("sim.pool_reused", "simulator hot-path objects served from free-lists")
	tel.Metrics.Gauge("sim.pool_allocated", "simulator hot-path objects freshly allocated")
	tel.Metrics.Counter("session.drift_events", "wired-phase drift watchdog firings")
	// Trace-analytics summaries: internal/analyze runs on every batch's
	// kernel profiles and folds the headline numbers into the registry.
	tel.Metrics.Counter("analyze.critical_path_us", "critical-path length summed over analyzed batches")
	tel.Metrics.Counter("analyze.path_dispatch_us", "critical-path time attributed to CPU dispatch")
	tel.Metrics.Counter("analyze.exposed_comm_us", "communication time not hidden behind compute")
	tel.Metrics.Counter("analyze.launch_gap_us", "device idle waiting on kernel launches")
	tel.Metrics.Counter("analyze.barrier_wait_us", "device idle at super-epoch barriers")
	tel.Metrics.Counter("analyze.bucket_stall_us", "comm stream idle waiting on gradient buckets")
	tel.Metrics.Counter("analyze.straggler_wait_us", "worker idle waiting for the slowest worker")
	tel.Metrics.Gauge("analyze.overlap_efficiency", "achieved/ideal comm overlap of the last analyzed batch")
	// The wire-time verification ran before telemetry attached; seed the
	// counters with what has accumulated so far.
	tel.Metrics.Counter("verify.configs", "distinct configurations checked by the plan verifier").Add(float64(s.VerifyConfigs))
	tel.Metrics.Counter("verify.findings", "plan-verifier findings (safety violations)").Add(float64(s.VerifyFindings))
	if len(s.Peers) > 0 {
		tel.Metrics.Gauge("distsim.workers", "data-parallel worker count").Set(float64(len(s.Peers) + 1))
		tel.Metrics.Histogram("distsim.comm_us", "per-batch gradient-exchange link-busy time")
		tel.Metrics.Counter("distsim.comm_kernels", "ring all-reduce step kernels launched")
	}
}

// CloseTelemetry emits the session-level root span; call once after the
// last batch, before exporting the trace.
func (s *Session) CloseTelemetry() {
	if s.Obs == nil {
		return
	}
	s.Obs.Trace.AddSpan(obs.PIDDispatch, obs.TIDBatches,
		"session "+s.Model.Name, "session", 0, s.ClockUs, map[string]interface{}{
			"model":   s.Model.Name,
			"batches": s.Batches,
			"trials":  s.Trials,
		})
}

// explorerBindings snapshots the choice labels of the variables the
// explorer actively measured this trial — the delta of the configuration.
// (A full binding of every variable would repeat ~O(vars) entries per trial
// and dominate the log; the recording set is exactly what this trial's
// measurements attach to.)
func (s *Session) explorerBindings() map[string]string {
	if s.Exp == nil {
		return nil
	}
	out := map[string]string{}
	for _, v := range s.Exp.Vars() {
		if v.Recording() {
			out[v.ID] = v.CurrentLabel()
		}
	}
	return out
}

// collectProfiles snapshots every worker's kernel timeline for the batch
// just run (device records stay valid until the next Reset). The comm
// stream index is stamped on so the analyzer can tell exchange lanes from
// compute lanes without parsing kernel names.
func (s *Session) collectProfiles() []obs.BatchProfile {
	out := make([]obs.BatchProfile, 0, 1+len(s.Peers))
	p := s.Runner.Dev.Profile(0)
	if s.Runner.Cfg.Comm.Enabled() {
		p.CommStream = s.Runner.CommStream()
	}
	out = append(out, p)
	for i, peer := range s.Peers {
		pp := peer.Dev.Profile(i + 1)
		if peer.Cfg.Comm.Enabled() {
			pp.CommStream = peer.CommStream()
		}
		out = append(out, pp)
	}
	return out
}

// recordBatchTelemetry emits the batch's span, counter samples, registry
// updates and event-log record. startUs is the session clock at batch
// start; bindings were captured before the explorer advanced, froze lists
// the variables that froze during it.
func (s *Session) recordBatchTelemetry(res *BatchResult, bindings map[string]string, froze []string, exploring, detail, drift bool) {
	tel := s.Obs
	startUs := s.ClockUs
	endUs := startUs + res.TotalUs

	// Trial span on the dispatch timeline (nested inside the session span).
	name := fmt.Sprintf("batch %d (wired)", s.Batches)
	phase := "wired"
	if exploring {
		name = fmt.Sprintf("trial %d", s.Trials)
		phase = "explore"
	}
	args := map[string]interface{}{"kernels": res.Kernels}
	if len(res.WorkerUs) > 0 {
		args["workers"] = len(res.WorkerUs)
		args["comm_us"] = res.CommUs
	}
	for k, v := range bindings { // lint:ok map-range order-independent map-to-map copy
		args["bind."+k] = v
	}
	tel.Trace.AddSpan(obs.PIDDispatch, obs.TIDBatches, name, phase, startUs, res.TotalUs, args)

	// Device streams and launch queues, shifted onto the session clock —
	// only for detail batches, so long sessions stay loadable. Peers land
	// in their own pid blocks; each worker's comm stream gets a named lane
	// so the overlap (or lack of it) reads directly off the trace.
	if detail {
		s.Runner.Dev.ExportSpans(tel.Trace, startUs)
		s.nameCommLane(obs.PIDDevice, s.Runner)
		for i, p := range s.Peers {
			rank := i + 1
			devPID := obs.WorkerPID(obs.PIDDevice, rank)
			p.Dev.ExportSpansTo(tel.Trace, startUs, devPID,
				obs.WorkerPID(obs.PIDQueue, rank), fmt.Sprintf("worker %d ", rank))
			s.nameCommLane(devPID, p)
		}
	}

	// Exploration counter tracks.
	frozen := 0
	if s.Exp != nil {
		frozen, _ = s.Exp.FrozenCount()
	}
	tel.Trace.AddCounter(obs.PIDExplore, "explore.trials", endUs, map[string]float64{"trials": float64(s.Trials)})
	tel.Trace.AddCounter(obs.PIDExplore, "explore.frozen_vars", endUs, map[string]float64{"frozen": float64(frozen)})
	tel.Trace.AddCounter(obs.PIDExplore, "batch.total_us", endUs, map[string]float64{"us": res.TotalUs})
	tel.Trace.AddCounter(obs.PIDExplore, "profile.hit_rate", endUs, map[string]float64{"rate": s.Ix.HitRate()})

	// Metrics registry.
	tel.Metrics.Histogram("batch.total_us", "").Observe(res.TotalUs)
	tel.Metrics.Counter("session.sim_time_us", "").Add(res.TotalUs)
	tel.Metrics.Counter("wirer.profiling_overhead_us", "").Add(res.ProfilingOverheadUs())
	tel.Metrics.Counter("wirer.kernels", "").Add(float64(res.Kernels))
	tel.Metrics.Counter("wirer.events", "").Add(float64(res.Events))
	tel.Metrics.Gauge("profile.hit_rate", "").Set(s.Ix.HitRate())
	reused, allocated := s.Runner.Dev.PoolCounters()
	tel.Metrics.Gauge("sim.pool_reused", "").Set(float64(reused))
	tel.Metrics.Gauge("sim.pool_allocated", "").Set(float64(allocated))
	if len(res.WorkerUs) > 0 {
		tel.Metrics.Histogram("distsim.comm_us", "").Observe(res.CommUs)
		tel.Metrics.Counter("distsim.comm_kernels", "").Add(float64(res.CommKernels))
		tel.Trace.AddCounter(obs.PIDExplore, "distsim.comm_us", endUs, map[string]float64{"us": res.CommUs})
	}

	ev := s.trialEvent(res, bindings, froze, phase, drift)

	// Fold the batch's trace analytics into the registry. The analyzer
	// reads the profiles just collected; its reconciliations are exact, so
	// these counters partition simulated time, never estimate it.
	if ba, err := analyze.AnalyzeBatch(&ev); err == nil && ba != nil {
		tel.Metrics.Counter("analyze.critical_path_us", "").Add(ba.WallUs)
		tel.Metrics.Counter("analyze.path_dispatch_us", "").Add(ba.PathBlame[analyze.ClassDispatch])
		tel.Metrics.Counter("analyze.exposed_comm_us", "").Add(ba.Overlap.ExposedUs)
		tel.Metrics.Counter("analyze.launch_gap_us", "").Add(ba.IdleUs[analyze.IdleLaunchGap])
		tel.Metrics.Counter("analyze.barrier_wait_us", "").Add(ba.IdleUs[analyze.IdleBarrierWait])
		tel.Metrics.Counter("analyze.bucket_stall_us", "").Add(ba.IdleUs[analyze.IdleBucketStall])
		tel.Metrics.Counter("analyze.straggler_wait_us", "").Add(ba.IdleUs[analyze.IdleStragglerWait])
		tel.Metrics.Gauge("analyze.overlap_efficiency", "").Set(ba.Overlap.Efficiency)
	}
	_ = tel.Events.Emit(ev)
}

// trialEvent builds the batch's event record: one per mini-batch, carrying
// the full per-worker kernel profiles, so an event log alone is enough for
// astra-analyze. The record keeps copies of res.Metrics, res.WorkerUs and
// froze, which the runner, the session and the explorer refill on their
// next batch or walk.
func (s *Session) trialEvent(res *BatchResult, bindings map[string]string, froze []string, phase string, drift bool) obs.TrialEvent {
	frozen, total, reexp := 0, 0, 0
	var pstats adapt.PriorStats
	if s.Exp != nil {
		frozen, total = s.Exp.FrozenCount()
		reexp = s.Exp.Reexplorations()
		pstats = s.Exp.PriorStats()
	}
	return obs.TrialEvent{
		Batch:          s.Batches,
		Trial:          s.Trials,
		Phase:          phase,
		StartUs:        s.ClockUs,
		BatchUs:        res.TotalUs,
		Kernels:        res.Kernels,
		Events:         res.Events,
		ProfOverheadUs: res.ProfilingOverheadUs(),
		HitRate:        s.Ix.HitRate(),
		FrozenVars:     frozen,
		TotalVars:      total,
		Bindings:       bindings,
		Metrics:        maps.Clone(res.Metrics),
		Drift:          drift,
		Workers:        len(res.WorkerUs),
		CommUs:         res.CommUs,
		WorkerUs:       append([]float64(nil), res.WorkerUs...),
		VerifyFindings: append([]string(nil), s.stepVerify...),
		Fabric:         s.Runner.Cfg.Comm.Fabric,
		Froze:          append([]string(nil), froze...),
		Reexplorations: reexp,
		PriorHits:      pstats.Hits,
		PriorMisses:    pstats.Misses,
		PriorPruned:    pstats.Pruned,
		PriorRankInv:   pstats.RankInversions,
		Profiles:       s.collectProfiles(),
		SessionMeta:    s.meta,
	}
}

// nameCommLane labels a worker's communication stream in the trace; a no-op
// for single-worker runners.
func (s *Session) nameCommLane(devPID int, r *Runner) {
	if s.Obs == nil || !r.Cfg.Comm.Enabled() {
		return
	}
	name := "comm stream"
	if f := r.Cfg.Comm.Fabric; f != "" {
		name = "comm stream (" + f + ")"
	}
	s.Obs.Trace.SetThreadName(devPID, r.CommStream(), name)
}

// Step runs one training mini-batch with the current configuration. While
// exploration is in progress the measurements feed the explorer, which then
// advances to the next configuration; afterwards batches run with the
// wired-in best configuration. The result's Metrics is the runner's map
// and its WorkerUs the session's slice, both valid until the next Step; the
// batch's event record keeps copies.
func (s *Session) Step() BatchResult {
	exploring := s.Exp != nil && !s.Exp.Done()
	s.verifyStep()
	detail := false
	if s.Obs != nil {
		detail = s.traceDetail(exploring)
		s.Runner.SetTraceOffset(s.ClockUs, detail)
	}
	var res BatchResult
	if s.EvalValues {
		in := s.Model.MakeInputs(s.batchSeed)
		s.batchSeed++
		res = s.Runner.RunBatch(in, s.Params)
		if s.LearningRate > 0 {
			autodiff.ApplySGD(s.Model.G, res.Env, s.Params, s.LearningRate)
		}
	} else {
		res = s.Runner.RunBatch(nil, nil)
	}
	if len(s.Peers) > 0 {
		// Synchronous data parallelism: every worker steps the same plan
		// binding, and the cluster's batch time is the slowest worker's.
		// Worker 0's metrics stay the explorer's signal — with the default
		// noise-free device the replicas are identical, so its e2e IS the
		// cluster step; under per-worker noise it is the unbiased proxy.
		s.workerUs = append(s.workerUs[:0], res.TotalUs)
		for _, p := range s.Peers {
			pr := p.RunBatch(nil, nil)
			s.workerUs = append(s.workerUs, pr.TotalUs)
			if pr.TotalUs > res.TotalUs {
				res.TotalUs = pr.TotalUs
			}
		}
		res.WorkerUs = s.workerUs
	}
	var bindings map[string]string
	var froze []string
	drift := false
	if exploring {
		if s.Obs != nil {
			// Capture the tried configuration before Advance moves on.
			bindings = s.explorerBindings()
		}
		s.Exp.Observe(res.Metrics)
		s.Exp.Advance()
		s.Trials++
		s.ExploreUs += res.TotalUs
		// Any wired expectation is stale once exploration runs again.
		s.driftExpectUs = 0
		if s.Obs != nil {
			froze = s.Exp.Froze()
		}
	}
	s.Batches++
	if !exploring {
		s.wiredBatches++
		drift = s.observeWired(res.TotalUs)
	}
	s.ProfOverheadUs += res.ProfilingOverheadUs()
	if s.Obs != nil {
		s.recordBatchTelemetry(&res, bindings, froze, exploring, detail, drift)
	}
	s.ClockUs += res.TotalUs
	return res
}

// modelScale classifies how a model was sized relative to the zoo's
// canonical configurations: "default" (§6.1 evaluation scale), "tiny" (the
// test scale), or "custom" for hand-built configs an event log cannot
// reconstruct. The comparison masks the RNG seed — it sizes nothing.
func modelScale(m *models.Model) string {
	if _, ok := models.Get(m.Name); !ok {
		return "custom" // hand-built cell, no canonical config to compare to
	}
	masked := m.Cfg
	masked.Seed = 0
	def := models.DefaultConfig(m.Name, m.Cfg.Batch)
	def.Seed = 0
	if masked == def {
		return "default"
	}
	tiny := models.TinyConfig(m.Name, m.Cfg.Batch)
	tiny.Seed = 0
	if masked == tiny {
		return "tiny"
	}
	return "custom"
}

// Explore runs mini-batches until the exploration converges, returning the
// number of configurations tried. A plan with no adaptive variables
// returns 0.
func (s *Session) Explore() int {
	if s.Exp == nil {
		return 0
	}
	for !s.Exp.Done() {
		s.Step()
	}
	return s.Exp.Trials()
}

// Done reports whether exploration has converged.
func (s *Session) Done() bool { return s.Exp == nil || s.Exp.Done() }

// Err reports a failed exploration (stuck explorer) or a failed
// verification. A non-nil error means the session is not trustworthy: a
// *verify.Error (unwrap with errors.As) marks a semantically unsafe plan or
// configuration — the analyses found a race, an aliasing overlap, an
// illegal fusion or a broken exchange — while an explorer error means the
// configuration search cannot make progress. Both are sticky.
func (s *Session) Err() error {
	if s.verifyErr != nil {
		return s.verifyErr
	}
	if s.Exp == nil {
		return nil
	}
	return s.Exp.Err()
}

// WiredTimeUs runs one post-exploration batch and returns its time.
func (s *Session) WiredTimeUs() float64 { return s.Step().TotalUs }
