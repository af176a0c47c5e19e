package verify

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickStrategiesAliasFree is the property form of the arena-aliasing
// analysis: whichever allocation strategy the planner emits, no two live
// buffers may overlap and every satisfied contiguity claim must hold.
func TestQuickStrategiesAliasFree(t *testing.T) {
	for _, model := range []string{"scrnn", "sublstm"} {
		p := planFor(t, model)
		if len(p.Allocs) == 0 {
			t.Fatalf("%s: plan has no allocation strategies", model)
		}
		f := func(pick uint8) bool {
			s := p.Allocs[int(pick)%len(p.Allocs)]
			return CheckStrategy(s, p.G.Values, p.Requests).OK()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 32, Rand: rand.New(rand.NewSource(7))}); err != nil {
			t.Errorf("%s: %v", model, err)
		}
	}
}

// TestQuickRandomBindingsScheduleSafe samples the configuration space at
// random — every adaptive variable set to an arbitrary choice, far beyond
// the per-dimension sweep astra-vet walks — and requires the symbolic
// schedule to stay free of deadlocks, races, illegal fusion and exchange
// corruption at every sampled point.
func TestQuickRandomBindingsScheduleSafe(t *testing.T) {
	p := planFor(t, "scrnn")
	if p.Tree == nil {
		t.Fatal("plan has no adaptive variables")
	}
	vars := p.Tree.Vars()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, v := range vars {
			v.SetChoice(rng.Intn(len(v.Labels)))
		}
		s := BuildSchedule(p, Spec{Workers: 2})
		r := CheckSchedule(p, s)
		if !r.OK() {
			t.Logf("seed %d: %v", seed, r.Findings)
		}
		return r.OK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}
