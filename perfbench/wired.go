package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"astra/internal/enumerate"
	"astra/internal/profile"
	"astra/internal/wire"
)

// wiredShape is scrnn at batch 16, level FKS, data-parallel over two
// workers on PCIe 3.
func wiredShape(tiny bool) shape {
	return shape{model: "scrnn", batch: 16, preset: enumerate.PresetFKS, workers: 2, tiny: tiny}
}

// wiredSegmentOps is the number of wired cluster steps in one segment.
// Each segment runs on a freshly set-up session, and one session's steps
// can run a third faster or slower than the next one's, so a run times
// several short segments rather than a few long ones.
func wiredSegmentOps(tiny bool) int {
	if tiny {
		return 20
	}
	return 1000
}

// wiredColdRuns is how many times a run explores the shape cold; the
// median of their wall times is the workload's time to wired.
const wiredColdRuns = 3

// runWiredDP first explores the shape cold to make a profile snapshot.
// That is not set-up: its wall time and trial count are the workload's
// time and trials to wired. Then it repeats set-up — build, compile, load
// the snapshot and walk to the wired schedule in zero trials — and a
// segment of wired steps. An op is one cluster step: both workers'
// dispatch plus the ring all-reduce.
func runWiredDP(cfg config) (*report, error) {
	sh := wiredShape(cfg.tiny)
	ops := wiredSegmentOps(cfg.tiny)
	t := newTally()
	var snap []byte
	var ref outcome
	for i := 0; i < wiredColdRuns; i++ {
		s, out, err := wiredSnapshot(sh, t)
		if err != nil {
			return nil, err
		}
		t.check(i == 0 || out == ref, "wired-dp: cold exploration %d gave %+v, the first %+v", i, out, ref)
		snap, ref = s, out
	}
	if cfg.trace {
		return traceWiredDP(cfg, sh, snap, ref, t)
	}
	for n := 0; another(cfg.budget, t.timed, n); n++ {
		s, err := wiredSetup(sh, snap, t)
		if err != nil {
			return nil, err
		}
		wiredSegment(t, s, ops, ref.wiredUs)
	}
	for len(t.setupS) < minSetups {
		if _, err := wiredSetup(sh, snap, t); err != nil {
			return nil, err
		}
	}
	return t.report(t.endToEnd(), digest([]outcome{ref}), 0)
}

func wiredSnapshot(sh shape, t *tally) ([]byte, outcome, error) {
	s := wire.NewSession(sh.build(), sh.sessionConfig(profile.NewIndex()))
	start := time.Now()
	for !s.Done() {
		s.Step()
	}
	t.wiredS = append(t.wiredS, time.Since(start).Seconds())
	t.trials = append(t.trials, float64(s.Trials))
	checkSession(t, "wired-dp cold exploration", s)
	out := outcome{sh.model, s.Trials, s.Step().TotalUs}
	var buf bytes.Buffer
	if err := s.Ix.Save(&buf); err != nil {
		return nil, out, fmt.Errorf("saving the profile snapshot: %w", err)
	}
	return buf.Bytes(), out, nil
}

func wiredSetup(sh shape, snap []byte, t *tally) (*wire.Session, error) {
	start := setupStart()
	m := sh.build()
	ix := profile.NewIndex()
	if err := ix.Load(bytes.NewReader(snap)); err != nil {
		return nil, fmt.Errorf("loading the profile snapshot: %w", err)
	}
	s := wire.NewSession(m, sh.sessionConfig(ix))
	for !s.Done() {
		s.Step()
	}
	t.setupS = append(t.setupS, time.Since(start).Seconds())
	t.check(s.Trials == 0, "wired-dp: warm walk took %d trials", s.Trials)
	checkSession(t, "wired-dp", s)
	return s, nil
}

func wiredSegment(t *tally, s *wire.Session, ops int, wantUs float64) {
	bad := 0
	t.segment(func() {
		for i := 0; i < ops; i++ {
			var us float64
			t.op(func() { us = s.Step().TotalUs })
			if us != wantUs {
				bad++
			}
		}
	})
	t.fail(bad, "wired-dp: %d of %d wired steps differ from %v µs", bad, ops, wantUs)
	checkSession(t, "wired-dp", s)
	t.measureLiveHeap()
	runtime.KeepAlive(s)
}

// traceWiredDP alternates an untraced set-up and segment with the same
// through the traced replica.
func traceWiredDP(cfg config, sh shape, snap []byte, ref outcome, t *tally) (*report, error) {
	ops := wiredSegmentOps(cfg.tiny)
	tr := newTracer()
	x := tracedRun{base: t, traced: newTally()}
	for n := 0; another(cfg.budget, t.timed+x.traced.timed, n); n++ {
		s, err := wiredSetup(sh, snap, t)
		if err != nil {
			return nil, err
		}
		wiredSegment(t, s, ops, ref.wiredUs)
		runtime.GC()
		r, err := newReplica(tr, sh, snap)
		if err != nil {
			return nil, err
		}
		for !r.done() {
			r.step()
		}
		t.check(r.trials == 0, "wired-dp: traced warm walk took %d trials", r.trials)
		bad := 0
		x.traced.segment(func() {
			for i := 0; i < ops; i++ {
				var us float64
				x.traced.op(func() { us = r.step().TotalUs })
				if us != ref.wiredUs {
					bad++
				}
			}
		})
		t.fail(bad, "wired-dp: %d of %d traced wired steps differ from %v µs", bad, ops, ref.wiredUs)
		r.check(t, "wired-dp")
		x.reps.add(r)
	}
	return x.finish(cfg, tr, digest([]outcome{ref}))
}
