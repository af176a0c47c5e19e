// Package serve is Astra's exploration-as-a-service layer: a long-running
// multi-tenant session server that accepts wiring jobs (model / scale /
// preset / workers / fabric), runs each one on the existing wire.Session
// machinery, and streams back convergence events, metrics and the wired
// schedule.
//
// Every session shares one sharded profile.Index — the paper's §5 "shared
// profile store across jobs" taken to production scale. Each job's keys are
// namespaced under its shape signature (wire.SessionConfig.ProfileContext),
// so mixed tenants never collide, while a tenant submitting a shape the
// fleet has already measured finds every key present and warm-starts:
// exploration converges in zero trials and goes straight to the wired
// schedule. Determinism of the simulated substrate makes this reuse exact —
// a warm-started job wires the same schedule the cold exploration did.
//
// The server owns admission control (bounded in-flight sessions with a fair
// FIFO queue), per-tenant isolation (each session has its own explorer and
// policy state; only measurements are shared), snapshot eviction under a
// memory ceiling (least-recently-used signatures are dropped whole), and
// graceful shutdown that drains in-flight jobs.
package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"astra/internal/adapt"
	"astra/internal/costmodel"
	"astra/internal/obs"
	"astra/internal/profile"
	"astra/internal/wire"
)

// Config sizes the server.
type Config struct {
	// MaxInFlight bounds concurrently exploring sessions (default 4).
	MaxInFlight int
	// MaxQueue bounds jobs waiting for an in-flight slot (default 64,
	// negative for no queue at all); beyond it submissions fail fast with
	// ErrQueueFull.
	MaxQueue int
	// MaxStoreKeys is the fleet profile store's memory ceiling, in stored
	// measurements (default 1 << 18). When a completed job pushes the
	// store above it, least-recently-used signatures are evicted whole
	// until the store fits (signatures with active sessions are never
	// evicted).
	MaxStoreKeys int
	// Registry receives the serve.* metrics (a fresh registry when nil);
	// expose it with obs.Registry.WriteProm.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxStoreKeys <= 0 {
		c.MaxStoreKeys = 1 << 18
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Event is one line of a job's progress stream.
type Event struct {
	// Type is "queued", "start", "trial", "wired", "result" or "error".
	Type       string  `json:"type"`
	Tenant     string  `json:"tenant,omitempty"`
	Signature  string  `json:"signature,omitempty"`
	WarmStart  bool    `json:"warm_start,omitempty"`
	Trial      int     `json:"trial,omitempty"`
	Step       int     `json:"step,omitempty"`
	BatchUs    float64 `json:"batch_us,omitempty"`
	FrozenVars int     `json:"frozen_vars,omitempty"`
	TotalVars  int     `json:"total_vars,omitempty"`
	// Code machine-tags an "error" event: "queue_full", "draining" or ""
	// (session failure / client cancel); stream clients map it back onto
	// the sentinel errors.
	Code   string  `json:"code,omitempty"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// Result is a completed job's wired outcome.
type Result struct {
	Tenant    string `json:"tenant"`
	Signature string `json:"signature"`
	// WarmStart reports whether the fleet store had already completed
	// this signature when the job was admitted.
	WarmStart bool `json:"warm_start"`
	// Trials is the number of exploration mini-batches this session ran
	// itself (0 for a fully warm-started job).
	Trials int `json:"trials"`
	// WiredUs is the wired schedule's mini-batch time (the last wired
	// step's).
	WiredUs float64 `json:"wired_us"`
	// ColdWiredUs is the wired time of this signature's first (cold)
	// completion — the ground truth a warm-started result is gated
	// against.
	ColdWiredUs float64 `json:"cold_wired_us"`
	// WarmDeltaPct is |WiredUs−ColdWiredUs|/ColdWiredUs·100; the serving
	// guarantee holds it ≤ 0.1 (in practice it is exactly 0: the substrate
	// is deterministic).
	WarmDeltaPct float64 `json:"warm_delta_pct"`
	// SimTimeUs is the simulated time the session consumed end to end.
	SimTimeUs float64 `json:"sim_time_us"`
	// StoreKeys is the fleet store size after the job completed.
	StoreKeys int `json:"store_keys"`
	// FleetHitRate is the fleet store's cumulative lookup hit rate.
	FleetHitRate float64 `json:"fleet_hit_rate"`
	// Workers echoes the job's data-parallel degree.
	Workers int `json:"workers"`
	// Prior echoes whether the job opted into cost-model guidance; the
	// counters below score the model's plans over this session (see
	// docs/COSTMODEL.md). They are zero for default jobs: their planner
	// never plans, it only learns.
	Prior       bool `json:"prior,omitempty"`
	PriorHits   int  `json:"prior_hits,omitempty"`
	PriorMisses int  `json:"prior_misses,omitempty"`
	PriorPruned int  `json:"prior_pruned,omitempty"`
}

// sessionOutcome is what one executed session reports back to Submit.
type sessionOutcome struct {
	trials    int
	wiredUs   float64
	simTimeUs float64
	prior     adapt.PriorStats
}

// sigState is the fleet store's per-signature bookkeeping.
type sigState struct {
	completed   bool
	coldWiredUs float64
	active      int   // sessions currently exploring this signature
	lastUsed    int64 // LRU tick of the last admission
}

// Server is the exploration service. Construct with NewServer; it is safe
// for concurrent use by any number of tenants.
type Server struct {
	cfg   Config
	fleet *profile.Index
	adm   *admission

	mu   sync.Mutex
	sigs map[string]*sigState
	seq  int64
	// priors holds one shared cost model per tenant namespace (see
	// docs/COSTMODEL.md): every session trains its tenant's model, and
	// sessions submitted with Job.Prior let it rank and prune exploration.
	// Bounded at maxPriorTenants; overflow tenants get a private throwaway
	// model so a tenant-name flood cannot grow server memory.
	priors map[string]*costmodel.Model

	// exec runs one admitted session; tests substitute it to drive
	// admission and eviction edge cases without real explorations.
	exec func(ctx context.Context, j Job, sig string, emit func(Event)) (*sessionOutcome, error)

	mAccepted, mCompleted, mAborted   *obs.Counter
	mRejQueue, mRejInvalid, mRejDrain *obs.Counter
	mWarmHits, mWarmMisses            *obs.Counter
	mEvictions, mEvictedKeys, mTrials *obs.Counter
	mInflight, mQueued                *obs.Gauge
	mStoreKeys, mStoreHitRate         *obs.Gauge
	mWiredUs                          *obs.Histogram

	mPriorJobs, mPriorHits    *obs.Counter
	mPriorMisses, mPriorPrune *obs.Counter
}

// maxPriorTenants bounds the per-tenant cost-model map.
const maxPriorTenants = 64

// NewServer builds a server with an empty fleet store.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		fleet:  profile.NewIndex(),
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		sigs:   map[string]*sigState{},
		priors: map[string]*costmodel.Model{},
	}
	s.exec = s.runSession
	reg := cfg.Registry
	s.fleet.Instrument(reg)
	s.mAccepted = reg.Counter("serve.jobs_accepted", "jobs admitted past admission control")
	s.mCompleted = reg.Counter("serve.jobs_completed", "jobs that returned a wired result")
	s.mAborted = reg.Counter("serve.jobs_aborted", "admitted jobs that failed or lost their client")
	s.mRejQueue = reg.Counter("serve.jobs_rejected_queue_full", "jobs rejected because the admission queue was full")
	s.mRejInvalid = reg.Counter("serve.jobs_rejected_invalid", "jobs rejected by request validation")
	s.mRejDrain = reg.Counter("serve.jobs_rejected_draining", "jobs rejected during graceful shutdown")
	s.mWarmHits = reg.Counter("serve.warm_hits", "completed jobs whose signature the fleet had already measured")
	s.mWarmMisses = reg.Counter("serve.warm_misses", "completed jobs that explored cold")
	s.mEvictions = reg.Counter("serve.store_evictions", "signatures evicted from the fleet store")
	s.mEvictedKeys = reg.Counter("serve.store_evicted_keys", "measurements dropped by fleet-store eviction")
	s.mTrials = reg.Counter("serve.trials", "exploration mini-batches run across all sessions")
	s.mInflight = reg.Gauge("serve.inflight", "sessions currently exploring")
	s.mQueued = reg.Gauge("serve.queued", "jobs waiting for an in-flight slot")
	s.mStoreKeys = reg.Gauge("serve.store_keys", "measurements in the fleet profile store")
	s.mStoreHitRate = reg.Gauge("serve.store_hit_rate", "fleet profile store lookup hit rate")
	s.mWiredUs = reg.Histogram("serve.wired_us", "wired mini-batch times of completed jobs")
	s.mPriorJobs = reg.Counter("serve.prior_jobs", "completed jobs that opted into cost-model guidance")
	s.mPriorHits = reg.Counter("serve.prior_hits", "freezes where the cost model's top prediction was the measured best")
	s.mPriorMisses = reg.Counter("serve.prior_misses", "freezes where the cost model's top prediction lost to a measurement")
	s.mPriorPrune = reg.Counter("serve.prior_pruned", "candidate measurements skipped by cost-model pruning")
	return s
}

// priorModel returns tenant's shared cost model, creating it on first use.
// Past maxPriorTenants distinct tenants, new tenants get a private model that
// is not retained — guidance still works within the session, but nothing
// accumulates, and server memory stays bounded.
func (s *Server) priorModel(tenant string) *costmodel.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.priors[tenant]; ok {
		return m
	}
	m := costmodel.NewModel()
	if len(s.priors) < maxPriorTenants {
		s.priors[tenant] = m
	}
	return m
}

// Fleet returns the shared profile store (snapshot with Save; import with
// Load, which merges and preserves counters on a live server).
func (s *Server) Fleet() *profile.Index { return s.fleet }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	return s.adm.closed
}

func (s *Server) updateGauges() {
	inflight, queued := s.adm.Counts()
	s.mInflight.Set(float64(inflight))
	s.mQueued.Set(float64(queued))
	s.mStoreKeys.Set(float64(s.fleet.Len()))
	s.mStoreHitRate.Set(s.fleet.HitRate())
}

// Submit validates, admits and runs one job, emitting progress events to
// emit (which may be nil). It blocks until the job completes, is rejected
// (ErrQueueFull, ErrDraining, *ValidationError) or ctx is cancelled — a
// cancelled ctx mid-session abandons the session (its measurements so far
// stay in the fleet store; they are exact and reusable).
func (s *Server) Submit(ctx context.Context, job Job, emit func(Event)) (*Result, error) {
	if emit == nil {
		emit = func(Event) {}
	}
	j, err := job.Normalize()
	if err != nil {
		s.mRejInvalid.Inc()
		return nil, err
	}
	sig := j.Signature()
	emit(Event{Type: "queued", Tenant: j.Tenant, Signature: sig})
	if err := s.adm.Acquire(ctx); err != nil {
		switch err {
		case ErrQueueFull:
			s.mRejQueue.Inc()
		case ErrDraining:
			s.mRejDrain.Inc()
		}
		s.updateGauges()
		return nil, err
	}
	defer func() {
		s.adm.Release()
		s.updateGauges()
	}()
	s.mAccepted.Inc()
	s.updateGauges()

	s.mu.Lock()
	st := s.sigs[sig]
	if st == nil {
		st = &sigState{}
		s.sigs[sig] = st
	}
	warm := st.completed
	st.active++
	s.seq++
	st.lastUsed = s.seq
	s.mu.Unlock()

	emit(Event{Type: "start", Tenant: j.Tenant, Signature: sig, WarmStart: warm})
	out, err := s.exec(ctx, j, sig, emit)

	s.mu.Lock()
	st.active--
	if err == nil && !st.completed {
		st.completed = true
		st.coldWiredUs = out.wiredUs
	}
	var cold float64
	if err == nil {
		cold = st.coldWiredUs
	}
	s.mu.Unlock()

	if err != nil {
		s.mAborted.Inc()
		emit(Event{Type: "error", Tenant: j.Tenant, Signature: sig, Error: err.Error()})
		return nil, err
	}

	// A session that converged without a single exploration trial found
	// every key already in the fleet store — warm in effect even if this
	// server never completed the signature (e.g. a snapshot import seeded
	// it).
	if out.trials == 0 {
		warm = true
	}
	if warm {
		s.mWarmHits.Inc()
	} else {
		s.mWarmMisses.Inc()
	}
	s.mCompleted.Inc()
	s.mTrials.Add(float64(out.trials))
	s.mWiredUs.Observe(out.wiredUs)
	if j.Prior {
		s.mPriorJobs.Inc()
	}
	s.mPriorHits.Add(float64(out.prior.Hits))
	s.mPriorMisses.Add(float64(out.prior.Misses))
	s.mPriorPrune.Add(float64(out.prior.Pruned))
	s.maybeEvict()

	res := &Result{
		Tenant:       j.Tenant,
		Signature:    sig,
		WarmStart:    warm,
		Trials:       out.trials,
		WiredUs:      out.wiredUs,
		ColdWiredUs:  cold,
		SimTimeUs:    out.simTimeUs,
		StoreKeys:    s.fleet.Len(),
		FleetHitRate: s.fleet.HitRate(),
		Workers:      j.Workers,
		Prior:        j.Prior,
		PriorHits:    out.prior.Hits,
		PriorMisses:  out.prior.Misses,
		PriorPruned:  out.prior.Pruned,
	}
	if cold > 0 {
		res.WarmDeltaPct = 100 * math.Abs(out.wiredUs-cold) / cold
	}
	emit(Event{Type: "result", Tenant: j.Tenant, Signature: sig, Result: res})
	return res, nil
}

// runSession is the real executor: build the model, compile a session
// bound to the shared fleet store under the job's signature namespace,
// explore with per-trial events, then run the wired steps.
func (s *Server) runSession(ctx context.Context, j Job, sig string, emit func(Event)) (*sessionOutcome, error) {
	shape := j.Shape()
	// Every session trains its tenant's cost model (a train-only planner
	// plans nothing, so default jobs behave exactly as before this model
	// existed); a job submitted with Prior lets the model rank and
	// margin-prune candidates.
	cfg := shape.SessionConfig()
	cfg.Index = s.fleet
	cfg.ProfileContext = sig
	cfg.Prior = costmodel.NewPlanner(s.priorModel(j.Tenant), j.costMeta(), j.Prior)
	sess := wire.NewSession(shape.Build(), cfg)
	out := &sessionOutcome{}
	for !sess.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res := sess.Step()
		out.simTimeUs += res.TotalUs
		frozen, total := 0, 0
		if sess.Exp != nil {
			frozen, total = sess.Exp.FrozenCount()
		}
		emit(Event{
			Type: "trial", Tenant: j.Tenant, Trial: sess.Trials,
			BatchUs: res.TotalUs, FrozenVars: frozen, TotalVars: total,
		})
	}
	if err := sess.Err(); err != nil {
		return nil, fmt.Errorf("serve: exploration failed: %w", err)
	}
	for i := 1; i <= j.Steps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res := sess.Step()
		out.simTimeUs += res.TotalUs
		out.wiredUs = res.TotalUs
		emit(Event{Type: "wired", Tenant: j.Tenant, Step: i, BatchUs: res.TotalUs})
	}
	out.trials = sess.Trials
	if sess.Exp != nil {
		out.prior = sess.Exp.PriorStats()
	}
	return out, nil
}

// maybeEvict enforces the fleet store's memory ceiling: while the store is
// over MaxStoreKeys, the least-recently-used completed signature with no
// active sessions is evicted whole (its namespace prefix makes that one
// call). Evicted signatures lose their warm-start baseline; the next job of
// that shape explores cold and repopulates the store.
func (s *Server) maybeEvict() {
	if s.fleet.Len() <= s.cfg.MaxStoreKeys {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type cand struct {
		sig  string
		used int64
	}
	var cands []cand
	for sig, st := range s.sigs { // lint:ok map-range sorted below before use
		if st.completed && st.active == 0 {
			cands = append(cands, cand{sig, st.lastUsed})
		}
	}
	sort.Slice(cands, func(i, k int) bool { return cands[i].used < cands[k].used })
	for _, c := range cands {
		if s.fleet.Len() <= s.cfg.MaxStoreKeys {
			break
		}
		delete(s.sigs, c.sig)
		n := s.fleet.EvictPrefix(c.sig)
		s.mEvictions.Inc()
		s.mEvictedKeys.Add(float64(n))
	}
	s.mStoreKeys.Set(float64(s.fleet.Len()))
}

// SigStats is one signature's entry in a Stats snapshot.
type SigStats struct {
	Signature   string  `json:"signature"`
	Completed   bool    `json:"completed"`
	ColdWiredUs float64 `json:"cold_wired_us"`
	Active      int     `json:"active"`
}

// Stats is a point-in-time view of the server.
type Stats struct {
	InFlight     int        `json:"inflight"`
	Queued       int        `json:"queued"`
	Draining     bool       `json:"draining"`
	StoreKeys    int        `json:"store_keys"`
	FleetHitRate float64    `json:"fleet_hit_rate"`
	Completed    float64    `json:"completed"`
	Aborted      float64    `json:"aborted"`
	WarmHits     float64    `json:"warm_hits"`
	WarmMisses   float64    `json:"warm_misses"`
	WarmHitRate  float64    `json:"warm_hit_rate"`
	Trials       float64    `json:"trials"`
	Signatures   []SigStats `json:"signatures"`
	// Prior-quality rollup across all sessions (see docs/COSTMODEL.md):
	// PriorHitRate is hits/(hits+misses) — how often the cost model's top
	// prediction was the measured best at freeze time. ModelTenants and
	// ModelUpdates size the per-tenant cost models (every session trains
	// one, whether or not it opted into guidance).
	PriorJobs    float64 `json:"prior_jobs"`
	PriorHits    float64 `json:"prior_hits"`
	PriorMisses  float64 `json:"prior_misses"`
	PriorHitRate float64 `json:"prior_hit_rate"`
	PriorPruned  float64 `json:"prior_pruned"`
	ModelTenants int     `json:"model_tenants"`
	ModelUpdates int64   `json:"model_updates"`
}

// StatsSnapshot captures the server's current state (signatures sorted).
func (s *Server) StatsSnapshot() Stats {
	inflight, queued := s.adm.Counts()
	st := Stats{
		InFlight:     inflight,
		Queued:       queued,
		Draining:     s.Draining(),
		StoreKeys:    s.fleet.Len(),
		FleetHitRate: s.fleet.HitRate(),
		Completed:    s.mCompleted.Value(),
		Aborted:      s.mAborted.Value(),
		WarmHits:     s.mWarmHits.Value(),
		WarmMisses:   s.mWarmMisses.Value(),
		Trials:       s.mTrials.Value(),
		PriorJobs:    s.mPriorJobs.Value(),
		PriorHits:    s.mPriorHits.Value(),
		PriorMisses:  s.mPriorMisses.Value(),
		PriorPruned:  s.mPriorPrune.Value(),
	}
	if n := st.WarmHits + st.WarmMisses; n > 0 {
		st.WarmHitRate = st.WarmHits / n
	}
	if n := st.PriorHits + st.PriorMisses; n > 0 {
		st.PriorHitRate = st.PriorHits / n
	}
	s.mu.Lock()
	st.ModelTenants = len(s.priors)
	for _, m := range s.priors { // lint:ok map-range order-independent sum
		st.ModelUpdates += m.Updates()
	}
	for sig, e := range s.sigs { // lint:ok map-range sorted below
		st.Signatures = append(st.Signatures, SigStats{
			Signature: sig, Completed: e.completed, ColdWiredUs: e.coldWiredUs, Active: e.active,
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Signatures, func(i, k int) bool { return st.Signatures[i].Signature < st.Signatures[k].Signature })
	return st
}

// Shutdown begins graceful shutdown: new submissions are rejected with
// ErrDraining, queued jobs are bounced (they never started, so no work is
// lost), and the call blocks until every in-flight session completes or ctx
// expires.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.adm.Drain(ctx)
	s.updateGauges()
	return err
}
