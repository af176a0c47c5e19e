package serve

import (
	"context"
	"testing"
)

// TestSoakConcurrentTenantsMatchSolo is the multi-tenant soak: many
// concurrent tenants hammer one server — and therefore one shared profile
// store — with a mixed rotation of shapes, twice. The guarantees under
// test, all under the race detector via `make race`:
//
//  1. Sharing the store never changes results: every completed job's wired
//     mini-batch time equals the solo baseline of its shape (a fresh
//     server, one job) exactly — not within the 0.1% gate, byte-identical.
//  2. Warm starts are free but faithful: zero gate violations, zero warm
//     delta.
//  3. The second, fully-warm pass scores a 100% hit rate (every signature
//     completed in pass one), pushing the cumulative rate past the 50%
//     serving target.
func TestSoakConcurrentTenantsMatchSolo(t *testing.T) {
	tenants, jobs := 16, 4
	if testing.Short() {
		tenants, jobs = 8, 2 // the -race CI lane runs -short
	}
	mix := DefaultMix()

	// Solo ground truth: each distinct shape on its own private server.
	solo := map[string]float64{}
	for _, j := range mix {
		jd, err := j.Normalize()
		if err != nil {
			t.Fatalf("mix shape invalid: %v", err)
		}
		if _, done := solo[jd.Signature()]; done {
			continue
		}
		res, err := NewServer(Config{}).Submit(context.Background(), j, nil)
		if err != nil {
			t.Fatalf("solo %s failed: %v", jd.Signature(), err)
		}
		solo[res.Signature] = res.WiredUs
	}

	shared := NewServer(Config{MaxInFlight: 4, MaxQueue: tenants * jobs})
	cfg := LoadConfig{Tenants: tenants, JobsPerTenant: jobs, Mix: mix}

	pass1, err := RunLoad(context.Background(), shared, cfg)
	if err != nil {
		t.Fatalf("pass 1: %v", err)
	}
	if pass1.Completed != tenants*jobs || pass1.Errors != 0 ||
		pass1.RejectedQueueFull != 0 || pass1.RejectedDraining != 0 {
		t.Fatalf("pass 1 not fully served: %+v", pass1)
	}
	if pass1.MaxWarmDeltaPct != 0 || pass1.GateViolations != 0 {
		t.Fatalf("pass 1 warm results drifted: max delta %v%%, %d gate violations",
			pass1.MaxWarmDeltaPct, pass1.GateViolations)
	}
	for sig, wired := range pass1.ColdWiredUs {
		if want, ok := solo[sig]; !ok || wired != want {
			t.Fatalf("shared cold wired %v for %s, solo says %v", wired, sig, want)
		}
	}
	if pass1.WarmHits+pass1.WarmMisses != pass1.Completed {
		t.Fatalf("warm split %d+%d != completed %d", pass1.WarmHits, pass1.WarmMisses, pass1.Completed)
	}

	// Pass 2 on the now-fully-warm store: every job must warm-start with
	// zero trials of its own and the identical wired time.
	pass2, err := RunLoad(context.Background(), shared, cfg)
	if err != nil {
		t.Fatalf("pass 2: %v", err)
	}
	if pass2.Completed != tenants*jobs || pass2.Errors != 0 {
		t.Fatalf("pass 2 not fully served: %+v", pass2)
	}
	if pass2.WarmHits != pass2.Completed || pass2.HitRate != 1 {
		t.Fatalf("pass 2 hit rate %v (%d/%d), want 1.0", pass2.HitRate, pass2.WarmHits, pass2.Completed)
	}
	if pass2.Trials != 0 {
		t.Fatalf("pass 2 ran %d exploration trials, want 0 (fully warm)", pass2.Trials)
	}
	if pass2.MaxWarmDeltaPct != 0 {
		t.Fatalf("pass 2 warm delta %v%%, want exactly 0", pass2.MaxWarmDeltaPct)
	}

	st := shared.StatsSnapshot()
	total := st.WarmHits + st.WarmMisses
	if rate := st.WarmHits / total; rate < 0.5 {
		t.Fatalf("cumulative warm hit rate %v, want >= 0.5", rate)
	}
	if len(st.Signatures) != len(solo) {
		t.Fatalf("server tracks %d signatures, want %d", len(st.Signatures), len(solo))
	}
}

// TestSoakSameShapeStampede: every tenant submits the *same* shape at once
// — the worst case for the shared store, with concurrent cold explorations
// racing to record the same keys. First-measurement-wins plus a
// deterministic substrate means every session must still wire the
// identical schedule.
func TestSoakSameShapeStampede(t *testing.T) {
	tenants := 12
	if testing.Short() {
		tenants = 6
	}
	job := Job{Model: "sublstm", Level: "FK"}
	jd, _ := job.Normalize()

	baseline, err := NewServer(Config{}).Submit(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("solo baseline: %v", err)
	}

	shared := NewServer(Config{MaxInFlight: 4, MaxQueue: tenants})
	rep, err := RunLoad(context.Background(), shared, LoadConfig{
		Tenants: tenants, JobsPerTenant: 1, Mix: []Job{job},
	})
	if err != nil {
		t.Fatalf("stampede: %v", err)
	}
	if rep.Completed != tenants || rep.Errors != 0 {
		t.Fatalf("stampede not fully served: %+v", rep)
	}
	if rep.MaxWarmDeltaPct != 0 || rep.GateViolations != 0 {
		t.Fatalf("stampede warm drift: %+v", rep)
	}
	if wired, ok := rep.ColdWiredUs[jd.Signature()]; !ok || wired != baseline.WiredUs {
		t.Fatalf("stampede cold wired %v, solo %v", wired, baseline.WiredUs)
	}
}
