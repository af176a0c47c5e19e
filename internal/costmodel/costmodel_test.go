package costmodel

import (
	"math"
	"slices"
	"sync"
	"testing"

	"astra/internal/adapt"
	"astra/internal/obs"
	"astra/internal/profile"
)

var testMeta = Meta{Model: "scrnn", Scale: "default", Batch: 16, Workers: 4, Fabric: "pcie3"}

func TestVarClass(t *testing.T) {
	cases := map[string]string{
		"g0.chunk":       "chunk",
		"lstm0.lib":      "lib",
		"comm.bucket_kb": "comm.bucket",
		"comm.place":     "comm.place",
		"alloc":          "alloc",
		"se0.ep1.c2":     "stream",
		"se2.ep0":        "stream",
		"mystery":        "other",
	}
	for id, want := range cases {
		if got := varClass(id); got != want {
			t.Errorf("varClass(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestBatchBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 15: 4, 16: 5, 64: 7}
	for in, want := range cases {
		if got := batchBucket(in); got != want {
			t.Errorf("batchBucket(%d) = %d, want %d", in, got, want)
		}
	}
	// Batches in the same power-of-two bucket share an L0 key.
	a := Meta{Model: "m", Batch: 9}
	b := Meta{Model: "m", Batch: 15}
	if hashL0(a, "v", "l") != hashL0(b, "v", "l") {
		t.Errorf("batches 9 and 15 should share an L0 bucket")
	}
}

// TestObservePredictBackoff exercises the three-level backoff: exact shape
// answers from L0, a new batch of a known model from L1, a brand-new model
// from the global L2 class stats.
func TestObservePredictBackoff(t *testing.T) {
	m := NewModel()
	if _, _, ok := m.Predict(testMeta, "g0.chunk", "2"); ok {
		t.Fatalf("empty model predicted something")
	}
	m.Observe(testMeta, "g0.chunk", "2", 100)

	if p, lvl, ok := m.Predict(testMeta, "g0.chunk", "2"); !ok || lvl != 0 || math.Abs(p-math.Log(100)) > 1e-12 {
		t.Fatalf("exact-shape predict = (%v, %d, %v), want (log 100, 0, true)", p, lvl, ok)
	}
	bigBatch := testMeta
	bigBatch.Batch = 256
	if _, lvl, ok := m.Predict(bigBatch, "g0.chunk", "2"); !ok || lvl != 1 {
		t.Fatalf("neighbour-shape predict level = %d (ok=%v), want 1", lvl, ok)
	}
	newModel := Meta{Model: "fresh", Batch: 8}
	if _, lvl, ok := m.Predict(newModel, "g9.chunk", "2"); !ok || lvl != 2 {
		t.Fatalf("new-model predict level = %d (ok=%v), want 2", lvl, ok)
	}
	// Different label of the same class: no data anywhere.
	if _, _, ok := m.Predict(newModel, "g9.chunk", "8"); ok {
		t.Fatalf("unseen label predicted")
	}
	// Garbage observations are ignored.
	before := m.Updates()
	m.Observe(testMeta, "g0.chunk", "2", 0)
	m.Observe(testMeta, "g0.chunk", "2", -5)
	m.Observe(testMeta, "g0.chunk", "2", math.Inf(1))
	m.Observe(testMeta, "g0.chunk", "2", math.NaN())
	if m.Updates() != before {
		t.Fatalf("non-positive/non-finite observations were folded in")
	}
}

func TestBucketSaturationAndDecay(t *testing.T) {
	m := NewModel()
	for i := 0; i < 10*maxBucketWeight; i++ {
		m.Observe(testMeta, "g0.chunk", "2", 100)
	}
	// Saturated weight lets fresh values move the mean by ≥ 1/maxWeight.
	m.Observe(testMeta, "g0.chunk", "2", 1000)
	p1, _, _ := m.Predict(testMeta, "g0.chunk", "2")
	if step := p1 - math.Log(100); step < (math.Log(1000)-math.Log(100))/(maxBucketWeight+1) {
		t.Fatalf("saturated bucket barely moved: step %v", step)
	}
	// Decay halves weights, so the same new value moves ~2x as far.
	m2 := NewModel()
	for i := 0; i < 10*maxBucketWeight; i++ {
		m2.Observe(testMeta, "g0.chunk", "2", 100)
	}
	m2.Decay()
	m2.Observe(testMeta, "g0.chunk", "2", 1000)
	p2, _, _ := m2.Predict(testMeta, "g0.chunk", "2")
	if p2 <= p1 {
		t.Fatalf("decayed bucket should adapt faster: %v vs %v", p2, p1)
	}
}

func TestTrainIndexDeterministicAndContextFree(t *testing.T) {
	ix := profile.NewIndex()
	ix.Record(profile.Key("ctxA#g0.chunk=2"), 100)
	ix.Record(profile.Key("ctxB#g0.chunk=2"), 200)
	ix.Record(profile.Key("ctxA#g0.chunk=8"), 400)
	ix.Record(profile.Key("#u0.lib=fast"), 50)
	ix.Record(profile.Key("plainchoice"), 10) // no var/label: skipped

	m := NewModel()
	n := m.TrainIndex(ix, testMeta)
	if n != 4 {
		t.Fatalf("TrainIndex folded %d entries, want 4", n)
	}
	// Context dropped: both g0.chunk=2 contexts land in one bucket.
	p, lvl, ok := m.Predict(testMeta, "g0.chunk", "2")
	if !ok || lvl != 0 {
		t.Fatalf("predict after TrainIndex: ok=%v lvl=%d", ok, lvl)
	}
	want := (math.Log(100) + math.Log(200)) / 2
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("context-free mean = %v, want %v", p, want)
	}
	// Same index, fresh model: identical state — same size, same update
	// count and the same answer, to the bit, at every backoff level.
	m2 := NewModel()
	m2.TrainIndex(ix, testMeta)
	if m2.Len() != m.Len() || m2.Updates() != m.Updates() {
		t.Fatalf("TrainIndex not deterministic: %d/%d buckets, %d/%d updates",
			m2.Len(), m.Len(), m2.Updates(), m.Updates())
	}
	bigBatch := testMeta
	bigBatch.Batch = 256
	for _, q := range []struct {
		meta       Meta
		varID, lbl string
	}{
		{testMeta, "g0.chunk", "2"},  // L0
		{testMeta, "g0.chunk", "8"},  // L0
		{testMeta, "u0.lib", "fast"}, // L0
		{bigBatch, "g0.chunk", "8"},  // L1
		{Meta{}, "g7.chunk", "2"},    // L2
		{testMeta, "g0.chunk", "16"}, // unknown
	} {
		p1, l1, ok1 := m.Predict(q.meta, q.varID, q.lbl)
		p2, l2, ok2 := m2.Predict(q.meta, q.varID, q.lbl)
		if p1 != p2 || l1 != l2 || ok1 != ok2 {
			t.Errorf("TrainIndex not deterministic: predict(%+v, %s, %s) = (%v,%d,%v) vs (%v,%d,%v)",
				q.meta, q.varID, q.lbl, p1, l1, ok1, p2, l2, ok2)
		}
	}
}

func TestInstrumentMetrics(t *testing.T) {
	m := NewModel()
	m.Observe(testMeta, "g0.chunk", "2", 100)
	reg := obs.NewRegistry()
	m.Instrument(reg)
	m.Observe(testMeta, "g0.chunk", "8", 200)
	snap := reg.Snapshot()
	if got := snap["costmodel.train_updates"].Value; got != 2 {
		t.Errorf("train_updates = %v, want 2 (1 seeded + 1 live)", got)
	}
	if got := snap["costmodel.buckets"].Value; got != float64(m.Len()) {
		t.Errorf("buckets gauge = %v, want %d", got, m.Len())
	}
}

func plannerFixture(t *testing.T, prune bool) *Planner {
	t.Helper()
	m := NewModel()
	// Chunk 2 fast, 4 close, 8 and 1 dominated.
	for i := 0; i < 4; i++ {
		m.Observe(testMeta, "g0.chunk", "2", 100)
		m.Observe(testMeta, "g0.chunk", "4", 110)
		m.Observe(testMeta, "g0.chunk", "8", 300)
		m.Observe(testMeta, "g0.chunk", "1", 900)
	}
	return NewPlanner(m, testMeta, prune)
}

// TestPlannerModeTrain: a planner that does not prune only trains.
func TestPlannerModeTrain(t *testing.T) {
	p := plannerFixture(t, false)
	plan := p.Plan("", "g0.chunk", []string{"1", "2", "4", "8"})
	if plan.Order != nil || plan.Pruned != nil {
		t.Fatalf("train-only planner produced a non-zero plan: %+v", plan)
	}
	// Observe still trains.
	before := p.model.Updates()
	p.Observe("", "g0.chunk", "2", 120)
	if p.model.Updates() != before+1 {
		t.Fatalf("train-only Observe did not train")
	}
}

// TestPlannerModeFullPrunesDominated: a pruning planner ranks by
// predicted cost and prunes the dominated candidates.
func TestPlannerModeFullPrunesDominated(t *testing.T) {
	p := plannerFixture(t, true)
	plan := p.Plan("", "g0.chunk", []string{"1", "2", "4", "8"})
	if want := []int{1, 2, 3, 0}; !slices.Equal(plan.Order, want) { // 2, 4, 8, 1 by predicted cost
		t.Fatalf("plan order = %v, want %v", plan.Order, want)
	}
	if plan.Pruned == nil {
		t.Fatalf("pruning planner pruned nothing")
	}
	// 2 and 4 survive (top-K=2), 8 (3x) and 1 (9x) are beyond the 35% margin.
	wantPruned := []bool{true, false, false, true}
	for i, w := range wantPruned {
		if plan.Pruned[i] != w {
			t.Fatalf("pruned = %v, want %v", plan.Pruned, wantPruned)
		}
	}
}

// TestPlannerMarginAndSurvivorValve pins the fixed thresholds at their
// edges: a candidate predicted just past the 35% margin is pruned, one
// just inside it is kept, and the top minSurvivors (2) of the predicted
// order survive however far they trail the best.
func TestPlannerMarginAndSurvivorValve(t *testing.T) {
	m := NewModel()
	m.Observe(testMeta, "g0.chunk", "1", 100)
	m.Observe(testMeta, "g0.chunk", "2", 100)
	m.Observe(testMeta, "g0.chunk", "4", 134.9) // inside the margin
	m.Observe(testMeta, "g0.chunk", "8", 135.1) // just past it
	p := NewPlanner(m, testMeta, true)
	plan := p.Plan("", "g0.chunk", []string{"1", "2", "4", "8"})
	if want := []bool{false, false, false, true}; !slices.Equal(plan.Pruned, want) {
		t.Fatalf("pruned = %v, want %v", plan.Pruned, want)
	}
	// The valve: with one best and everything else 10x slower, the
	// runner-up is still kept, and only candidates ranked past it go.
	v := NewModel()
	v.Observe(testMeta, "g0.chunk", "1", 100)
	v.Observe(testMeta, "g0.chunk", "2", 1000)
	v.Observe(testMeta, "g0.chunk", "4", 1000)
	plan = NewPlanner(v, testMeta, true).Plan("", "g0.chunk", []string{"1", "2", "4"})
	if want := []bool{false, false, true}; !slices.Equal(plan.Pruned, want) {
		t.Fatalf("valve pruned = %v, want %v", plan.Pruned, want)
	}
	// Two candidates: both are the top 2, so nothing is ever pruned.
	if plan := NewPlanner(v, testMeta, true).Plan("", "g0.chunk", []string{"1", "2"}); plan.Pruned != nil {
		t.Fatalf("a top-2 candidate was pruned: %v", plan.Pruned)
	}
}

func TestPlannerUnknownAndL2Behaviour(t *testing.T) {
	m := NewModel()
	p := NewPlanner(m, testMeta, true)
	// Empty model: zero plan.
	if plan := p.Plan("", "g0.chunk", []string{"1", "2"}); plan.Order != nil {
		t.Fatalf("empty model produced a plan")
	}
	// Only-L2 knowledge ranks but never prunes (maxPruneLevel 1), even a
	// third candidate predicted 9x slower than the best.
	m.Observe(Meta{Model: "donor"}, "x9.chunk", "1", 900)
	m.Observe(Meta{Model: "donor"}, "x9.chunk", "2", 100)
	m.Observe(Meta{Model: "donor"}, "x9.chunk", "4", 900)
	plan := p.Plan("", "g0.chunk", []string{"1", "2", "4"})
	if len(plan.Order) != 3 || plan.Order[0] != 1 {
		t.Fatalf("L2 rank order = %v, want 1 first", plan.Order)
	}
	if plan.Pruned != nil {
		t.Fatalf("L2-only predictions pruned: %v", plan.Pruned)
	}
	// Unpredicted candidates sort after predicted ones and are never
	// pruned, even ranked past the survivor valve.
	m2 := NewModel()
	for i := 0; i < 4; i++ {
		m2.Observe(testMeta, "g0.chunk", "2", 100)
		m2.Observe(testMeta, "g0.chunk", "4", 100)
	}
	p2 := NewPlanner(m2, testMeta, true)
	plan2 := p2.Plan("", "g0.chunk", []string{"zz", "2", "4"})
	if plan2.Order[0] != 1 || plan2.Order[1] != 2 || plan2.Order[2] != 0 {
		t.Fatalf("order = %v, want predicted candidates first", plan2.Order)
	}
	if plan2.Pruned != nil {
		t.Fatalf("unpredicted candidate pruned: %v", plan2.Pruned)
	}
}

// TestPlannerImplementsPrior pins the interface contract at compile time
// and the Invalidate→Decay wiring at run time.
func TestPlannerImplementsPrior(t *testing.T) {
	var _ adapt.Prior = (*Planner)(nil)
	p := plannerFixture(t, true)
	for i := 0; i < 8; i++ {
		p.Observe("", "g0.chunk", "2", 100)
	}
	before, _, _ := p.model.Predict(testMeta, "g0.chunk", "2")
	p.Invalidate()
	p.Observe("", "g0.chunk", "2", 1000)
	after, _, _ := p.model.Predict(testMeta, "g0.chunk", "2")
	if after <= before {
		t.Fatalf("post-Invalidate observation did not move the mean up")
	}
}

// TestConcurrentTrainPredictLoad is the race soak: one goroutine streams
// observations in, one predicts, one decays — the shared fleet-model usage
// pattern (concurrent sessions training one tenant's model, drift thaws
// decaying it) under `make race`.
func TestConcurrentTrainPredictLoad(t *testing.T) {
	m := NewModel()
	m.Observe(testMeta, "g0.chunk", "2", 100)
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		labels := []string{"1", "2", "4", "8"}
		for i := 0; i < iters; i++ {
			m.Observe(testMeta, "g0.chunk", labels[i%len(labels)], float64(50+i%100))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m.Predict(testMeta, "g0.chunk", "2")
			m.Predict(Meta{Model: "other"}, "x.chunk", "4")
			m.Len()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/20; i++ {
			m.Decay()
			m.Updates()
		}
	}()
	wg.Wait()
	if _, _, ok := m.Predict(testMeta, "g0.chunk", "2"); !ok {
		t.Fatalf("model unusable after concurrent soak")
	}
}
