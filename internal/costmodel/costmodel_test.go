package costmodel

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"astra/internal/adapt"
	"astra/internal/obs"
	"astra/internal/profile"
)

var testMeta = Meta{Model: "scrnn", Scale: "default", Batch: 16, Workers: 4, Fabric: "pcie3"}

// TestKeyHashConsistency pins the core invariant of the zero-alloc hot
// path: the incremental FNV hash of a feature tuple equals the plain FNV
// hash of its readable key string. Snapshots depend on it — Load rebuilds
// the hash table from readable keys alone.
func TestKeyHashConsistency(t *testing.T) {
	metas := []Meta{
		{},
		testMeta,
		{Model: "sublstm", Scale: "tiny", Batch: 1, Workers: 1, Fabric: "nvlink1"},
		{Model: "m|odel", Scale: "s", Batch: 1 << 20, Workers: -3, Fabric: ""},
	}
	vars := []struct{ id, label string }{
		{"g0.chunk", "2"},
		{"u3.lib", "fast"},
		{"comm.bucket_kb", "512"},
		{"comm.place", "dedicated"},
		{"alloc", "pool"},
		{"se0.ep1.c2", "s1"},
		{"", ""},
		{"weird|id", "weird|label"},
	}
	for _, m := range metas {
		for _, v := range vars {
			if got, want := hashL0(m, v.id, v.label), hashKeyString(keyL0(m, v.id, v.label)); got != want {
				t.Errorf("L0 hash mismatch for %+v %q=%q: key %q", m, v.id, v.label, keyL0(m, v.id, v.label))
			}
			if got, want := hashL1(m, v.id, v.label), hashKeyString(keyL1(m, v.id, v.label)); got != want {
				t.Errorf("L1 hash mismatch for %+v %q=%q: key %q", m, v.id, v.label, keyL1(m, v.id, v.label))
			}
			if got, want := hashL2(v.id, v.label), hashKeyString(keyL2(v.id, v.label)); got != want {
				t.Errorf("L2 hash mismatch for %q=%q: key %q", v.id, v.label, keyL2(v.id, v.label))
			}
		}
	}
}

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
	if keyL0(a, "v", "l") != keyL0(b, "v", "l") {
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
	// Same index, fresh model: identical state (snapshot bytes equal).
	m2 := NewModel()
	m2.TrainIndex(ix, testMeta)
	var b1, b2 bytes.Buffer
	if err := m.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("TrainIndex not deterministic across runs")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := NewModel()
	m.Observe(testMeta, "g0.chunk", "2", 100)
	m.Observe(testMeta, "g0.chunk", "8", 300)
	m.Observe(Meta{Model: "sublstm", Batch: 8}, "lstm0.lib", "fused", 900)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	loaded := NewModel()
	if err := loaded.Load(strings.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != m.Len() || loaded.Updates() != m.Updates() {
		t.Fatalf("round-trip size: %d/%d buckets, %d/%d updates",
			loaded.Len(), m.Len(), loaded.Updates(), m.Updates())
	}
	for _, q := range []struct {
		meta       Meta
		varID, lbl string
	}{
		{testMeta, "g0.chunk", "2"},
		{testMeta, "g0.chunk", "8"},
		{Meta{Model: "sublstm", Batch: 8}, "lstm0.lib", "fused"},
		{Meta{Model: "other"}, "x.chunk", "2"}, // L2 backoff
	} {
		p0, l0, ok0 := m.Predict(q.meta, q.varID, q.lbl)
		p1, l1, ok1 := loaded.Predict(q.meta, q.varID, q.lbl)
		if p0 != p1 || l0 != l1 || ok0 != ok1 {
			t.Errorf("round-trip predict(%+v, %s, %s): (%v,%d,%v) vs (%v,%d,%v)",
				q.meta, q.varID, q.lbl, p0, l0, ok0, p1, l1, ok1)
		}
	}
	// Save is deterministic.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != saved {
		t.Fatalf("re-save differs from original save")
	}
}

func TestLoadRejectsHostileSnapshots(t *testing.T) {
	good := func() string {
		m := NewModel()
		m.Observe(testMeta, "g0.chunk", "2", 100)
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}()
	bad := []struct{ name, in string }{
		{"empty", ""},
		{"garbage", "not json at all"},
		{"truncated", good[:len(good)/2]},
		{"missing version", `{"updates":1,"buckets":{}}`},
		{"future version", `{"version":99,"updates":1,"buckets":{}}`},
		{"negative updates", `{"version":1,"updates":-1,"buckets":{}}`},
		{"bad key prefix", `{"version":1,"updates":1,"buckets":{"9|x|":{"n":1,"mean":1}}}`},
		{"bad key suffix", `{"version":1,"updates":1,"buckets":{"0|x":{"n":1,"mean":1}}}`},
		{"zero weight", `{"version":1,"updates":1,"buckets":{"0|x|":{"n":0,"mean":1}}}`},
		{"huge weight", `{"version":1,"updates":1,"buckets":{"0|x|":{"n":9999,"mean":1}}}`},
		{"trailing junk type", `{"version":1,"updates":"one","buckets":{}}`},
	}
	for _, tc := range bad {
		m := NewModel()
		m.Observe(testMeta, "u0.lib", "slow", 500) // pre-existing state
		if err := m.Load(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: hostile snapshot accepted", tc.name)
		}
		// Never a half-load: prior state intact.
		if _, _, ok := m.Predict(testMeta, "u0.lib", "slow"); !ok {
			t.Errorf("%s: failed load clobbered model state", tc.name)
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

func plannerFixture(t *testing.T, mode Mode) *Planner {
	t.Helper()
	m := NewModel()
	// Chunk 2 fast, 4 close, 8 and 1 dominated.
	for i := 0; i < 4; i++ {
		m.Observe(testMeta, "g0.chunk", "2", 100)
		m.Observe(testMeta, "g0.chunk", "4", 110)
		m.Observe(testMeta, "g0.chunk", "8", 300)
		m.Observe(testMeta, "g0.chunk", "1", 900)
	}
	return NewPlanner(m, testMeta, PlannerConfig{Mode: mode})
}

func TestPlannerModeTrain(t *testing.T) {
	p := plannerFixture(t, ModeTrain)
	plan := p.Plan("", "g0.chunk", []string{"1", "2", "4", "8"})
	if plan.Order != nil || plan.Pruned != nil {
		t.Fatalf("ModeTrain produced a non-zero plan: %+v", plan)
	}
	// Observe still trains.
	before := p.Model().Updates()
	p.Observe("", "g0.chunk", "2", 120)
	if p.Model().Updates() != before+1 {
		t.Fatalf("ModeTrain Observe did not train")
	}
}

func TestPlannerModeRank(t *testing.T) {
	p := plannerFixture(t, ModeRank)
	plan := p.Plan("", "g0.chunk", []string{"1", "2", "4", "8"})
	want := []int{1, 2, 3, 0} // 2, 4, 8, 1 by predicted cost
	if len(plan.Order) != 4 {
		t.Fatalf("rank plan order = %v", plan.Order)
	}
	for i, w := range want {
		if plan.Order[i] != w {
			t.Fatalf("rank order = %v, want %v", plan.Order, want)
		}
	}
	if plan.Pruned != nil {
		t.Fatalf("ModeRank pruned: %v", plan.Pruned)
	}
}

func TestPlannerModeFullPrunesDominated(t *testing.T) {
	p := plannerFixture(t, ModeFull)
	plan := p.Plan("", "g0.chunk", []string{"1", "2", "4", "8"})
	if plan.Pruned == nil {
		t.Fatalf("ModeFull pruned nothing")
	}
	// 2 and 4 survive (top-K=2), 8 (3x) and 1 (9x) are beyond the 35% margin.
	wantPruned := []bool{true, false, false, true}
	for i, w := range wantPruned {
		if plan.Pruned[i] != w {
			t.Fatalf("pruned = %v, want %v", plan.Pruned, wantPruned)
		}
	}
}

func TestPlannerMarginAndSurvivorValve(t *testing.T) {
	m := NewModel()
	m.Observe(testMeta, "g0.chunk", "2", 100)
	m.Observe(testMeta, "g0.chunk", "4", 110)
	m.Observe(testMeta, "g0.chunk", "8", 120)
	// All within 35%: nothing prunable.
	p := NewPlanner(m, testMeta, PlannerConfig{Mode: ModeFull})
	if plan := p.Plan("", "g0.chunk", []string{"2", "4", "8"}); plan.Pruned != nil {
		t.Fatalf("close candidates pruned: %v", plan.Pruned)
	}
	// Tiny margin prunes beyond top-K but the valve keeps K survivors even
	// when everything past the best is "dominated".
	p = NewPlanner(m, testMeta, PlannerConfig{Mode: ModeFull, MarginFrac: 0.01, MinSurvivors: 2})
	plan := p.Plan("", "g0.chunk", []string{"2", "4", "8"})
	if plan.Pruned == nil {
		t.Fatalf("tiny margin pruned nothing")
	}
	survivors := 0
	for _, pr := range plan.Pruned {
		if !pr {
			survivors++
		}
	}
	if survivors != 2 {
		t.Fatalf("survivors = %d, want 2", survivors)
	}
	if plan.Pruned[0] {
		t.Fatalf("predicted best was pruned")
	}
}

func TestPlannerUnknownAndL2Behaviour(t *testing.T) {
	m := NewModel()
	p := NewPlanner(m, testMeta, PlannerConfig{Mode: ModeFull})
	// Empty model: zero plan.
	if plan := p.Plan("", "g0.chunk", []string{"1", "2"}); plan.Order != nil {
		t.Fatalf("empty model produced a plan")
	}
	// Only-L2 knowledge ranks but never prunes (MaxLevel default 1).
	m.Observe(Meta{Model: "donor"}, "x9.chunk", "1", 900)
	m.Observe(Meta{Model: "donor"}, "x9.chunk", "2", 100)
	plan := p.Plan("", "g0.chunk", []string{"1", "2"})
	if len(plan.Order) != 2 || plan.Order[0] != 1 {
		t.Fatalf("L2 rank order = %v, want [1 0]", plan.Order)
	}
	if plan.Pruned != nil {
		t.Fatalf("L2-only predictions pruned: %v", plan.Pruned)
	}
	// Unpredicted candidates sort after predicted ones and are never pruned.
	m2 := NewModel()
	for i := 0; i < 4; i++ {
		m2.Observe(testMeta, "g0.chunk", "2", 100)
	}
	p2 := NewPlanner(m2, testMeta, PlannerConfig{Mode: ModeFull, MarginFrac: 0.01, MinSurvivors: 1})
	plan2 := p2.Plan("", "g0.chunk", []string{"zz", "2"})
	if plan2.Order[0] != 1 || plan2.Order[1] != 0 {
		t.Fatalf("order = %v, want predicted candidate first", plan2.Order)
	}
	if plan2.Pruned != nil {
		t.Fatalf("unpredicted candidate pruned: %v", plan2.Pruned)
	}
}

// TestPlannerImplementsPrior pins the interface contract at compile time
// and the Invalidate→Decay wiring at run time.
func TestPlannerImplementsPrior(t *testing.T) {
	var _ adapt.Prior = (*Planner)(nil)
	p := plannerFixture(t, ModeFull)
	for i := 0; i < 8; i++ {
		p.Observe("", "g0.chunk", "2", 100)
	}
	before, _, _ := p.Model().Predict(testMeta, "g0.chunk", "2")
	p.Invalidate()
	p.Observe("", "g0.chunk", "2", 1000)
	after, _, _ := p.Model().Predict(testMeta, "g0.chunk", "2")
	if after <= before {
		t.Fatalf("post-Invalidate observation did not move the mean up")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{ModeTrain: "train", ModeRank: "rank", ModeFull: "full", Mode(99): "mode?"} {
		if got := m.String(); got != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestPlannerConfigDefaults(t *testing.T) {
	var zero PlannerConfig
	if zero.marginFrac() != 0.35 || zero.minSurvivors() != 2 || zero.maxLevel() != 1 {
		t.Fatalf("zero config thresholds = %v/%v/%v, want 0.35/2/1",
			zero.marginFrac(), zero.minSurvivors(), zero.maxLevel())
	}
	set := PlannerConfig{MarginFrac: 0.1, MinSurvivors: 5, MaxLevel: 2}
	if set.marginFrac() != 0.1 || set.minSurvivors() != 5 || set.maxLevel() != 2 {
		t.Fatalf("explicit thresholds not honoured: %v/%v/%v",
			set.marginFrac(), set.minSurvivors(), set.maxLevel())
	}
}

func TestPlannerAccessors(t *testing.T) {
	m := NewModel()
	p := NewPlanner(m, testMeta, PlannerConfig{Mode: ModeRank})
	if p.Model() != m {
		t.Fatal("Model() did not return the bound model")
	}
	if p.Meta() != testMeta {
		t.Fatalf("Meta() = %+v, want %+v", p.Meta(), testMeta)
	}
}
