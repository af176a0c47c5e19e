package main

import (
	"runtime"
	"time"

	"astra/internal/enumerate"
	"astra/internal/profile"
	"astra/internal/wire"
)

// exploreShapes are the models of the paper's Tables 2–4 at batch 16,
// level FKS, on one worker.
func exploreShapes(tiny bool) []shape {
	var out []shape
	for _, m := range []string{"scrnn", "milstm", "sublstm"} {
		out = append(out, shape{model: m, batch: 16, preset: enumerate.PresetFKS, tiny: tiny})
	}
	return out
}

// runExploreCold repeats passes. A pass sets up — builds and compiles the
// three models, each on a fresh profile index — and then, as its timed
// segment, explores each cold to convergence in turn. An op is one
// exploring Session.Step.
func runExploreCold(cfg config) (*report, error) {
	shapes := exploreShapes(cfg.tiny)
	t := newTally()
	if cfg.trace {
		return traceExploreCold(cfg, shapes, t)
	}
	var ref string
	for n := 0; another(cfg.budget, t.timed, n); n++ {
		d := explorePass(shapes, t)
		t.check(n == 0 || d == ref, "explore-cold: pass %d digest %q, pass 0 %q", n, d, ref)
		if n == 0 {
			ref = d
		}
	}
	for len(t.setupS) < minSetups {
		exploreSetup(shapes, t)
	}
	return t.report(t.endToEnd(), ref, 0)
}

func exploreSetup(shapes []shape, t *tally) []*wire.Session {
	start := setupStart()
	sessions := make([]*wire.Session, len(shapes))
	for i, sh := range shapes {
		sessions[i] = wire.NewSession(sh.build(), sh.sessionConfig(profile.NewIndex()))
	}
	t.setupS = append(t.setupS, time.Since(start).Seconds())
	return sessions
}

// explorePass runs one pass and returns its digest.
func explorePass(shapes []shape, t *tally) string {
	sessions := exploreSetup(shapes, t)
	var toWired time.Duration
	t.segment(func() {
		for _, s := range sessions {
			start := time.Now()
			for !s.Done() {
				t.op(func() { s.Step() })
			}
			toWired += time.Since(start)
		}
	})
	outs := make([]outcome, len(sessions))
	trials := 0
	for i, s := range sessions {
		checkSession(t, shapes[i].model, s)
		outs[i] = outcome{shapes[i].model, s.Trials, s.Step().TotalUs}
		trials += s.Trials
	}
	t.wiredS = append(t.wiredS, toWired.Seconds())
	t.trials = append(t.trials, float64(trials))
	t.measureLiveHeap()
	runtime.KeepAlive(sessions)
	return digest(outs)
}

// traceExploreCold alternates an untraced pass with the same pass through
// the traced replica, which must reproduce the untraced digest exactly.
func traceExploreCold(cfg config, shapes []shape, t *tally) (*report, error) {
	tr := newTracer()
	x := tracedRun{base: t, traced: newTally()}
	var ref string
	for n := 0; another(cfg.budget, t.timed+x.traced.timed, n); n++ {
		d := explorePass(shapes, t)
		if n == 0 {
			ref = d
		}
		runtime.GC()
		reps := make([]*replica, len(shapes))
		for i, sh := range shapes {
			r, err := newReplica(tr, sh, nil)
			if err != nil {
				return nil, err
			}
			reps[i] = r
		}
		x.traced.segment(func() {
			for _, r := range reps {
				for !r.done() {
					x.traced.op(func() { r.step() })
				}
			}
		})
		outs := make([]outcome, len(reps))
		for i, r := range reps {
			r.check(t, shapes[i].model)
			outs[i] = outcome{shapes[i].model, r.trials, r.step().TotalUs}
			if err := r.roundTrip(t); err != nil {
				return nil, err
			}
			x.reps.add(r)
		}
		t.check(digest(outs) == ref, "explore-cold: traced digest %q, untraced %q", digest(outs), ref)
	}
	return x.finish(cfg, tr, ref)
}
