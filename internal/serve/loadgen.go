package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// LoadConfig shapes a load-generation run. The schedule is fully
// deterministic: tenant t's j-th job is Mix[(t*7+j) % len(Mix)] — a fixed
// stride that interleaves every shape across tenants — so two runs of the
// same config submit exactly the same multiset of jobs.
type LoadConfig struct {
	// Tenants is the number of concurrent tenants (default 8). Each runs
	// its jobs sequentially; tenants run against the server in parallel.
	Tenants int
	// JobsPerTenant is each tenant's job count (default 4).
	JobsPerTenant int
	// Mix is the job-shape rotation (DefaultMix() when empty). Tenant
	// names in the mix are overwritten with the generated tenant id.
	Mix []Job
}

// warmGate is the warm-result acceptance gate, the serving guarantee: a
// warm-started job whose wired time differs from the signature's cold
// baseline by more than this percentage counts as a GateViolation.
const warmGate = 0.1

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.JobsPerTenant <= 0 {
		c.JobsPerTenant = 4
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	return c
}

// DefaultMix is the standard multi-tenant shape rotation: three zoo models
// across adaptation levels, batch sizes, stream counts and data-parallel
// degrees — eight distinct signatures, all tiny scale so a load run is
// seconds, not hours.
func DefaultMix() []Job {
	return []Job{
		{Model: "sublstm", Level: "FK"},
		{Model: "scrnn", Level: "F"},
		{Model: "milstm", Level: "FK"},
		{Model: "sublstm", Level: "F", Batch: 8},
		{Model: "scrnn", Level: "FK", Workers: 2},
		{Model: "sublstm", Level: "FK", Workers: 2, Fabric: "nvlink1"},
		{Model: "milstm", Level: "F", Batch: 2},
		{Model: "scrnn", Level: "FK", Streams: 4},
	}
}

// LoadReport aggregates a load run. Counts are deterministic for a given
// (server config, load config) pair; which tenant scored the warm hits is
// scheduling-dependent, their total split cold/warm is not once every
// signature completes cold exactly once (no eviction mid-run).
type LoadReport struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	// RejectedQueueFull / RejectedDraining count admission bounces;
	// Errors counts everything else (with FirstError as the sample).
	RejectedQueueFull int    `json:"rejected_queue_full"`
	RejectedDraining  int    `json:"rejected_draining"`
	Errors            int    `json:"errors"`
	FirstError        string `json:"first_error,omitempty"`
	// WarmHits / WarmMisses split the completed jobs; HitRate is the warm
	// share of completions.
	WarmHits   int     `json:"warm_hits"`
	WarmMisses int     `json:"warm_misses"`
	HitRate    float64 `json:"hit_rate"`
	// MaxWarmDeltaPct is the worst warm-vs-cold wired-time deviation seen;
	// GateViolations counts warm results beyond the 0.1% warm gate.
	MaxWarmDeltaPct float64 `json:"max_warm_delta_pct"`
	GateViolations  int     `json:"gate_violations"`
	// Trials sums exploration mini-batches across completions; SimTimeUs
	// sums simulated time.
	Trials    int     `json:"trials"`
	SimTimeUs float64 `json:"sim_time_us"`
	// ColdWiredUs maps each signature to its cold-exploration wired
	// mini-batch time — the deterministic ground truth of the run.
	ColdWiredUs map[string]float64 `json:"cold_wired_us"`
}

// Signatures returns the report's signatures, sorted.
func (r *LoadReport) Signatures() []string {
	out := make([]string, 0, len(r.ColdWiredUs))
	for sig := range r.ColdWiredUs { // lint:ok map-range sorted below
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// RunLoad drives cfg.Tenants concurrent tenants against sub (an in-process
// *Server or a *Client) and aggregates the outcome. It returns an error
// only for setup problems; per-job failures are counted in the report.
func RunLoad(ctx context.Context, sub Submitter, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	for i, j := range cfg.Mix {
		if _, err := j.Normalize(); err != nil {
			return nil, fmt.Errorf("serve: load mix entry %d: %w", i, err)
		}
	}
	rep := &LoadReport{ColdWiredUs: map[string]float64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for t := 0; t < cfg.Tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for jn := 0; jn < cfg.JobsPerTenant; jn++ {
				job := cfg.Mix[(t*7+jn)%len(cfg.Mix)]
				job.Tenant = fmt.Sprintf("tenant-%03d", t)
				res, err := sub.Submit(ctx, job, nil)
				mu.Lock()
				rep.Submitted++
				switch {
				case err == nil:
					rep.Completed++
					rep.Trials += res.Trials
					rep.SimTimeUs += res.SimTimeUs
					if res.WarmStart {
						rep.WarmHits++
						if res.WarmDeltaPct > rep.MaxWarmDeltaPct {
							rep.MaxWarmDeltaPct = res.WarmDeltaPct
						}
						if res.WarmDeltaPct > warmGate {
							rep.GateViolations++
						}
					} else {
						rep.WarmMisses++
						// Concurrent cold explorations of one shape must
						// agree exactly; a split is a determinism breach.
						if prev, ok := rep.ColdWiredUs[res.Signature]; ok && prev != res.WiredUs {
							rep.GateViolations++
						}
						rep.ColdWiredUs[res.Signature] = res.WiredUs
					}
				case errors.Is(err, ErrQueueFull):
					rep.RejectedQueueFull++
				case errors.Is(err, ErrDraining):
					rep.RejectedDraining++
				default:
					rep.Errors++
					if rep.FirstError == "" {
						rep.FirstError = err.Error()
					}
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	if rep.Completed > 0 {
		rep.HitRate = float64(rep.WarmHits) / float64(rep.Completed)
	}
	return rep, nil
}
