package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"astra/internal/enumerate"
	"astra/internal/profile"
	"astra/internal/serve"
)

const (
	// Two closed-loop clients keep the load within a 2-core host; each
	// rotates over its own tenants.
	serveClients     = 2
	tenantsPerClient = 3
	// freshBatchBase keeps fresh shapes' batches above the warm shapes'
	// default batch of 4, so no fresh shape matches a warm one.
	freshBatchBase = 8
)

// serveJobsPerClient is one segment's job count per client.
func serveJobsPerClient(tiny bool) int {
	if tiny {
		return 8
	}
	return 1200
}

var levelPresets = map[string]enumerate.Preset{
	"F": enumerate.PresetF, "FK": enumerate.PresetFK, "FKS": enumerate.PresetFKS, "All": enumerate.PresetAll,
}

// warmShapes are the shapes every set-up explores once, cold: the three
// paper models at levels F, FK and FKS, a 2-worker shape and a 4-stream
// shape. Jobs take the serve defaults: tiny scale, prior off.
func warmShapes() []serve.Job {
	var out []serve.Job
	for _, m := range []string{"scrnn", "milstm", "sublstm"} {
		for _, l := range []string{"F", "FK", "FKS"} {
			out = append(out, serve.Job{Model: m, Level: l})
		}
	}
	return append(out,
		serve.Job{Model: "scrnn", Level: "FK", Workers: 2},
		serve.Job{Model: "sublstm", Level: "FKS", Streams: 4})
}

// freshKinds are the model and level pairs fresh shapes cycle through;
// the batch size makes each one new.
var freshKinds = []serve.Job{
	{Model: "scrnn", Level: "F"}, {Model: "scrnn", Level: "FK"},
	{Model: "milstm", Level: "F"}, {Model: "milstm", Level: "FK"},
	{Model: "sublstm", Level: "F"}, {Model: "sublstm", Level: "FK"},
}

// plannedJob is one scheduled serve-mix op.
type plannedJob struct {
	job   serve.Job
	fresh bool // a shape only this client submits, once, so it explores cold
}

// schedule returns one client's jobs for a segment of n. Three in four
// rotate over the warm shapes and one in four is a fresh shape, so cold
// explorations happen by schedule, not by timing. The seed orders the jobs
// and picks the fresh batch sizes; the models and levels are the same for
// every seed, so seeds vary the inputs, not the amount of work. A client's
// fresh batches are congruent to its index modulo serveClients, so no
// fresh shape is shared between clients.
func schedule(seed int64, client, n int) []plannedJob {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	warm := warmShapes()
	fresh := n / 4
	jobs := make([]plannedJob, 0, n)
	for i := 0; i < n-fresh; i++ {
		jobs = append(jobs, plannedJob{job: warm[i%len(warm)]})
	}
	// Each kind draws its batches from twice as many slots as it needs.
	perKind := (fresh + len(freshKinds) - 1) / len(freshKinds)
	slots := make([][]int, len(freshKinds))
	for k := range slots {
		slots[k] = rng.Perm(2 * perKind)
	}
	for i := 0; i < fresh; i++ {
		k := i % len(freshKinds)
		j := freshKinds[k]
		j.Batch = freshBatchBase + serveClients*slots[k][i/len(freshKinds)] + client
		jobs = append(jobs, plannedJob{job: j, fresh: true})
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	for i := range jobs {
		jobs[i].job.Tenant = fmt.Sprintf("client%d-tenant%d", client, i%tenantsPerClient)
	}
	return jobs
}

// normalize returns a scheduled job as the server normalizes it.
func normalize(j serve.Job) serve.Job {
	n, err := j.Normalize()
	if err != nil {
		panic(fmt.Sprintf("perfbench: invalid scheduled job %+v: %v", j, err))
	}
	return n
}

// jobShape is the shape the server compiles for a job.
func jobShape(j serve.Job) shape {
	n := normalize(j)
	return shape{model: n.Model, batch: n.Batch, preset: levelPresets[n.Level], streams: n.Streams, workers: n.Workers, tiny: true}
}

// runServeMix repeats segments, each on a fresh server. Set-up starts the
// server on a loopback listener and explores every warm shape once, cold;
// the segment runs both clients' schedules in closed loops over NDJSON
// streams. An op is one job, from Submit to its result.
func runServeMix(cfg config) (*report, error) {
	plans := make([][]plannedJob, serveClients)
	for c := range plans {
		plans[c] = schedule(cfg.seed, c, serveJobsPerClient(cfg.tiny))
	}
	t := newTally()
	if cfg.trace {
		return traceServeMix(cfg, plans, t)
	}
	var ref string
	for n := 0; another(cfg.budget, t.timed, n); n++ {
		seeds, err := serveSegment(t, t, plans, nil, nil)
		if err != nil {
			return nil, err
		}
		d := digest(seeds)
		t.check(n == 0 || d == ref, "serve-mix: segment %d seeded %q, segment 0 %q", n, d, ref)
		if n == 0 {
			ref = d
		}
	}
	return t.report(t.endToEnd(), ref, 0)
}

// serveEnv is one set-up: a fresh server behind a loopback HTTP listener,
// the clients that talk to it and the warm shapes' cold results.
type serveEnv struct {
	srv     *serve.Server
	hs      *httptest.Server
	clients []*serve.Client
	cold    map[string]float64
	seeds   []outcome
}

func newServeEnv(ctx context.Context, t *tally) (*serveEnv, error) {
	start := setupStart()
	srv := serve.NewServer(serve.Config{})
	e := &serveEnv{srv: srv, hs: httptest.NewServer(srv.Handler()), cold: map[string]float64{}}
	for i := 0; i < serveClients; i++ {
		e.clients = append(e.clients, &serve.Client{
			BaseURL: e.hs.URL,
			HTTP:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
			Stream:  true,
		})
	}
	for _, j := range warmShapes() {
		res, err := e.clients[0].Submit(ctx, j, nil)
		if err != nil {
			e.close(ctx)
			return nil, fmt.Errorf("seeding %s: %w", normalize(j).Signature(), err)
		}
		t.check(!res.WarmStart && res.Trials > 0, "serve-mix: seed job %s ran warm", res.Signature)
		e.cold[res.Signature] = res.WiredUs
		e.seeds = append(e.seeds, outcome{res.Signature, res.Trials, res.WiredUs})
	}
	t.setupS = append(t.setupS, time.Since(start).Seconds())
	return e, nil
}

// close drains the server, then stops the listener and the clients'
// connections.
func (e *serveEnv) close(ctx context.Context) error {
	err := e.srv.Shutdown(ctx)
	for _, c := range e.clients {
		c.HTTP.CloseIdleConnections()
	}
	e.hs.Close()
	if err != nil {
		return fmt.Errorf("draining the server: %w", err)
	}
	return nil
}

// serveSegment sets up a fresh server and runs one segment on it. Set-up
// is timed into setup, the segment into t. ph, when not nil, receives the
// traced run's phase split, and the fleet store's snapshot is loaded under
// a profile.load span of tr. It returns the warm shapes' cold results.
func serveSegment(setup, t *tally, plans [][]plannedJob, ph *servePhases, tr *tracer) ([]outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	e, err := newServeEnv(ctx, setup)
	if err != nil {
		return nil, err
	}
	results := make([][]jobResult, len(plans))
	t.segment(func() {
		var wg sync.WaitGroup
		for c := range plans {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c] = runClient(ctx, e.clients[c], plans[c], ph != nil)
			}(c)
		}
		wg.Wait()
		var done []*jobResult
		for _, rs := range results {
			for i := range rs {
				done = append(done, &rs[i])
			}
		}
		sort.Slice(done, func(a, b int) bool { return done[a].done.Before(done[b].done) })
		for _, r := range done {
			t.addOp(r.submit, r.done)
		}
	})
	var toWired time.Duration
	trials := 0
	for _, rs := range results {
		for i := range rs {
			r := &rs[i]
			if !checkJob(t, r, e.cold) {
				continue
			}
			if r.plan.fresh {
				toWired += r.lastTrial.Sub(r.start)
				trials += r.res.Trials
			}
			if ph != nil {
				ph.add(r)
			}
		}
	}
	t.wiredS = append(t.wiredS, toWired.Seconds())
	t.trials = append(t.trials, float64(trials))
	t.measureLiveHeap()
	if ph != nil {
		if err := ph.loadFleet(ctx, e, tr); err != nil {
			e.close(ctx)
			return nil, err
		}
	}
	if err := e.close(ctx); err != nil {
		return nil, err
	}
	return e.seeds, nil
}

// jobResult is one serve-mix op as its client saw it: the submission and
// return times, and the arrival times of stream events. Untraced runs
// stamp only what time to wired needs, the start and trial events.
type jobResult struct {
	plan         plannedJob
	res          *serve.Result
	err          error
	submit, done time.Time
	queued       time.Time
	start        time.Time
	firstStep    time.Time // the first trial, or the wired step of a warm job
	lastTrial    time.Time
	wired        time.Time
}

func (r *jobResult) observe(traced bool) func(serve.Event) {
	return func(ev serve.Event) {
		switch ev.Type {
		case "start":
			r.start = time.Now()
		case "trial":
			now := time.Now()
			if r.firstStep.IsZero() {
				r.firstStep = now
			}
			r.lastTrial = now
		case "queued":
			if traced {
				r.queued = time.Now()
			}
		case "wired":
			if traced {
				now := time.Now()
				if r.firstStep.IsZero() {
					r.firstStep = now
				}
				r.wired = now
			}
		}
	}
}

// runClient submits jobs one after another: a closed loop.
func runClient(ctx context.Context, c *serve.Client, jobs []plannedJob, traced bool) []jobResult {
	out := make([]jobResult, len(jobs))
	for i, pj := range jobs {
		r := &out[i]
		r.plan = pj
		r.submit = time.Now()
		r.res, r.err = c.Submit(ctx, pj.job, r.observe(traced))
		r.done = time.Now()
	}
	return out
}

// checkJob checks one job's result against its schedule and reports
// whether it completed: no rejection, the planned cold or warm start, and
// for a warm job the wired time of its shape's cold exploration, exactly.
func checkJob(t *tally, r *jobResult, cold map[string]float64) bool {
	sig := normalize(r.plan.job).Signature()
	if r.err != nil {
		t.check(false, "serve-mix: job %s failed: %v", sig, r.err)
		return false
	}
	res := r.res
	t.check(res.Signature == sig, "serve-mix: job %s came back as %s", sig, res.Signature)
	if r.plan.fresh {
		t.check(!res.WarmStart && res.Trials > 0, "serve-mix: fresh job %s ran warm (%d trials)", sig, res.Trials)
		return true
	}
	want, seeded := cold[sig]
	t.check(seeded && res.WarmStart && res.Trials == 0 && res.WiredUs == want && res.WarmDeltaPct == 0,
		"serve-mix: warm job %s: warm=%v trials=%d wired_us=%v, want warm, 0 trials, %v (delta %v%%)",
		sig, res.WarmStart, res.Trials, res.WiredUs, want, res.WarmDeltaPct)
	return true
}

// servePhases splits traced jobs' wall time by when their stream events
// reached the client: transport (submission to "queued", and the wired
// event to Submit's return), queue wait ("queued" to "start"), compile
// ("start" to the first step: build, enumerate, verify, explorer set-up and
// that step), explore (first to last trial) and wired (last trial to the
// wired event).
type servePhases struct {
	transport, queue, compile, explore, wired, total time.Duration
	jobs, warm                                       int
	// The fleet store as the last job to finish saw it, and as its
	// snapshot loads.
	fleetHitRate float64
	storeKeys    int
	lastDone     time.Time
	fleetKeys    int
}

func (p *servePhases) add(r *jobResult) {
	p.transport += r.queued.Sub(r.submit) + r.done.Sub(r.wired)
	p.queue += r.start.Sub(r.queued)
	p.compile += r.firstStep.Sub(r.start)
	if !r.lastTrial.IsZero() {
		p.explore += r.lastTrial.Sub(r.firstStep)
		p.wired += r.wired.Sub(r.lastTrial)
	}
	p.total += r.done.Sub(r.submit)
	p.jobs++
	if r.res.WarmStart {
		p.warm++
	}
	if r.done.After(p.lastDone) {
		p.lastDone = r.done
		p.fleetHitRate = r.res.FleetHitRate
		p.storeKeys = r.res.StoreKeys
	}
}

func (p *servePhases) share(d time.Duration) float64 { return ratio(float64(d), float64(p.total)) }

// loadFleet downloads the fleet store's snapshot and loads it into a fresh
// index under a profile.load span.
func (p *servePhases) loadFleet(ctx context.Context, e *serveEnv, tr *tracer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.hs.URL+"/v1/profile", nil)
	if err != nil {
		return err
	}
	resp, err := e.clients[0].HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("downloading the fleet snapshot: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("downloading the fleet snapshot: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("downloading the fleet snapshot: status %d", resp.StatusCode)
	}
	ix := profile.NewIndex()
	s := tr.now()
	err = ix.Load(bytes.NewReader(body))
	tr.end("profile.load", -1, s)
	if err != nil {
		return fmt.Errorf("loading the fleet snapshot: %w", err)
	}
	p.fleetKeys = ix.Len()
	return nil
}

// traceServeMix alternates an untraced segment with a traced one, whose
// jobs stamp every stream event. The server's layers cannot be timed from
// outside, so the traced replica then runs each warm shape once, cold:
// the per-job work the server does, split by layer. It must reproduce the
// server's cold results exactly.
func traceServeMix(cfg config, plans [][]plannedJob, t *tally) (*report, error) {
	tr := newTracer()
	x := tracedRun{base: t, traced: newTally(), serve: &servePhases{}}
	var ref string
	var seeds []outcome
	for n := 0; another(cfg.budget, t.timed+x.traced.timed, n); n++ {
		s, err := serveSegment(t, t, plans, nil, nil)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			ref = digest(s)
		}
		t.check(digest(s) == ref, "serve-mix: untraced segment %d seeded %q, want %q", n, digest(s), ref)
		if seeds, err = serveSegment(t, x.traced, plans, x.serve, tr); err != nil {
			return nil, err
		}
		t.check(digest(seeds) == ref, "serve-mix: traced segment %d seeded %q, want %q", n, digest(seeds), ref)
	}
	for i, j := range warmShapes() {
		r, err := newReplica(tr, jobShape(j), nil)
		if err != nil {
			return nil, err
		}
		for !r.done() {
			r.step()
		}
		got := outcome{seeds[i].name, r.trials, r.step().TotalUs}
		t.check(got == seeds[i], "serve-mix: replica of %s gave %+v, the server %+v", seeds[i].name, got, seeds[i])
		r.check(t, seeds[i].name)
		x.reps.add(r)
	}
	return x.finish(cfg, tr, ref)
}
