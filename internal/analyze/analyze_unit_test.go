package analyze

import (
	"encoding/json"
	"strings"
	"testing"

	"astra/internal/obs"
)

func TestClass(t *testing.T) {
	cases := map[string]string{
		"gemm_cublas_64x64x64": obs.ClassGEMM,
		"ew_sigmoid":           obs.ClassEW,
		"copy":                 obs.ClassCopy,
		"allreduce.b0.s3":      obs.ClassAllReduce,
		"mystery":              obs.ClassOther,
	}
	for name, want := range cases {
		if got := obs.KernelClass(name); got != want {
			t.Errorf("obs.KernelClass(%q) = %q, want %q", name, got, want)
		}
	}
}

// synthetic profile: two streams.
//
//	stream 0: gemm [10, 110]   launched at 10, then ew [115, 165] launched
//	          at 12 but FIFO-free at 110 and wait-bound to 115 by an event
//	          on stream 1 (tag "epoch")
//	stream 1: copy [20, 115]   launched at 20
//
// CPU finished dispatching at 30; device drained at 165; wall 165.
func syntheticProfile() obs.BatchProfile {
	return obs.BatchProfile{
		Worker: 0, Streams: 2, CommStream: -1,
		CPUUs: 165, EndUs: 165, NumSMs: 56, SMBusyUs: 0,
		Kernels: []obs.KernelSample{
			{Name: "gemm_cublas_64", Stream: 0, LaunchUs: 10, StartUs: 10, EndUs: 110,
				FreeUs: 0, WaitUs: 0, WaitStream: -1},
			{Name: "copy", Stream: 1, LaunchUs: 20, StartUs: 20, EndUs: 115,
				FreeUs: 0, WaitUs: 0, WaitStream: -1},
			{Name: "ew_add", Stream: 0, LaunchUs: 12, StartUs: 115, EndUs: 165,
				FreeUs: 110, WaitUs: 115, WaitStream: 1, WaitTag: "epoch"},
		},
	}
}

func TestCriticalPathSynthetic(t *testing.T) {
	p := syntheticProfile()
	path := CriticalPath(&p)
	// Expected walk: ew [115,165] → wait bound → copy [20,115] → launch
	// bound → dispatch [0,20].
	if len(path) != 3 {
		t.Fatalf("path has %d segments: %+v", len(path), path)
	}
	if path[0].Kind != ClassDispatch || path[0].StartUs != 0 || path[0].EndUs != 20 {
		t.Fatalf("segment 0 = %+v", path[0])
	}
	if path[1].Name != "copy" || path[2].Name != "ew_add" {
		t.Fatalf("path kernels: %+v", path)
	}
	if err := verifyChain(path, 165); err != nil {
		t.Fatal(err)
	}
	b := blame(path)
	if b[ClassDispatch] != 20 || b[obs.ClassCopy] != 95 || b[obs.ClassEW] != 50 {
		t.Fatalf("blame = %v", b)
	}
}

func TestCriticalPathCPUBound(t *testing.T) {
	p := obs.BatchProfile{Worker: 2, Streams: 1, CommStream: -1, CPUUs: 500, EndUs: 400,
		Kernels: []obs.KernelSample{
			{Name: "ew_x", Stream: 0, LaunchUs: 5, StartUs: 5, EndUs: 400, WaitStream: -1},
		}}
	path := CriticalPath(&p)
	if len(path) != 1 || path[0].Kind != ClassDispatch || path[0].EndUs != 500 {
		t.Fatalf("CPU-bound path = %+v", path)
	}
	if path[0].Worker != 2 {
		t.Fatalf("worker not carried: %+v", path[0])
	}
}

func TestCriticalPathEmptyProfile(t *testing.T) {
	p := obs.BatchProfile{Worker: 0, Streams: 1, CommStream: -1, CPUUs: 42, EndUs: 0}
	path := CriticalPath(&p)
	if len(path) != 1 || path[0].Kind != ClassDispatch || path[0].EndUs != 42 {
		t.Fatalf("kernel-free path = %+v", path)
	}
	empty := obs.BatchProfile{}
	if got := CriticalPath(&empty); got != nil {
		t.Fatalf("zero profile path = %+v", got)
	}
}

func TestStreamTimelinesSynthetic(t *testing.T) {
	p := syntheticProfile()
	tls := StreamTimelines(&p, 200) // cluster horizon beyond this worker's wall
	if len(tls) != 2 {
		t.Fatalf("%d timelines", len(tls))
	}
	for _, tl := range tls {
		if err := verifyChain(tl.Segments, 200); err != nil {
			t.Fatalf("stream %d: %v", tl.Stream, err)
		}
	}
	// Stream 0: launch_gap [0,10], busy gemm, epoch_wait [110,115] (launch
	// was at 12 < free at 110, so the whole gap is the wait), busy ew,
	// straggler_wait [165,200].
	kinds := func(tl StreamTimeline) []string {
		var out []string
		for _, s := range tl.Segments {
			out = append(out, s.Kind)
		}
		return out
	}
	want0 := []string{IdleLaunchGap, "busy", IdleEpochWait, "busy", IdleStragglerWait}
	got0 := kinds(tls[0])
	if len(got0) != len(want0) {
		t.Fatalf("stream 0 kinds = %v", got0)
	}
	for i := range want0 {
		if got0[i] != want0[i] {
			t.Fatalf("stream 0 kinds = %v, want %v", got0, want0)
		}
	}
	if seg := tls[0].Segments[2]; seg.StartUs != 110 || seg.EndUs != 115 {
		t.Fatalf("epoch wait = %+v", seg)
	}
	// Stream 1: launch_gap [0,20], busy copy, drain [115,165],
	// straggler_wait [165,200].
	want1 := []string{IdleLaunchGap, "busy", IdleDrain, IdleStragglerWait}
	got1 := kinds(tls[1])
	if len(got1) != len(want1) {
		t.Fatalf("stream 1 kinds = %v", got1)
	}
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("stream 1 kinds = %v, want %v", got1, want1)
		}
	}
}

func TestWaitTagCategories(t *testing.T) {
	cases := map[string]string{
		"epoch": IdleEpochWait, "barrier": IdleBarrierWait,
		"bucket": IdleBucketStall, "commjoin": IdleExposedComm,
		"": IdleSyncWait, "novel": IdleSyncWait,
	}
	for tag, want := range cases {
		if got := waitTagCategory(tag); got != want {
			t.Errorf("waitTagCategory(%q) = %q, want %q", tag, got, want)
		}
	}
}

func TestIntervalOps(t *testing.T) {
	u := union([]interval{{5, 10}, {0, 6}, {20, 30}, {25, 28}})
	if len(u) != 2 || u[0] != (interval{0, 10}) || u[1] != (interval{20, 30}) {
		t.Fatalf("union = %+v", u)
	}
	if got := lengthUs(u); got != 20 {
		t.Fatalf("length = %v", got)
	}
	x := intersect(u, []interval{{8, 22}})
	if len(x) != 2 || x[0] != (interval{8, 10}) || x[1] != (interval{20, 22}) {
		t.Fatalf("intersect = %+v", x)
	}
	if union(nil) != nil || len(intersect(nil, u)) != 0 {
		t.Fatal("empty interval ops")
	}
}

func TestOverlapStats(t *testing.T) {
	p := obs.BatchProfile{Worker: 0, Streams: 2, CommStream: 1, CPUUs: 100, EndUs: 100,
		Kernels: []obs.KernelSample{
			{Name: "gemm_a_1", Stream: 0, StartUs: 0, EndUs: 60, WaitStream: -1},
			{Name: "allreduce.b0.s0", Stream: 1, StartUs: 40, EndUs: 90, WaitStream: -1},
		}}
	o := Overlap(&p)
	if o.CommBusyUs != 50 || o.ComputeBusyUs != 60 || o.OverlapUs != 20 {
		t.Fatalf("overlap = %+v", o)
	}
	if o.IdealUs != 50 || o.ExposedUs != 30 || o.Efficiency != 0.4 {
		t.Fatalf("derived overlap = %+v", o)
	}
	noComm := Overlap(&obs.BatchProfile{})
	if noComm.Efficiency != 1 || noComm.ExposedUs != 0 {
		t.Fatalf("comm-free overlap = %+v", noComm)
	}
}

func TestDependenciesSynthetic(t *testing.T) {
	p := syntheticProfile()
	deps := Dependencies(&p)
	want := []Dep{
		{FIFO: -1, Wait: -1}, // gemm: first on stream 0, no wait
		{FIFO: -1, Wait: -1}, // copy: first on stream 1, no wait
		{FIFO: 0, Wait: 1},   // ew: after gemm on stream 0, wait on copy's end
	}
	if len(deps) != len(want) {
		t.Fatalf("deps = %+v", deps)
	}
	for i := range want {
		if deps[i] != want[i] {
			t.Fatalf("dep %d = %+v, want %+v", i, deps[i], want[i])
		}
	}
	// A wait whose producer end matches no kernel (event resolved at CPU
	// arrival) yields Wait -1.
	p.Kernels[2].WaitUs = 117
	deps = Dependencies(&p)
	if deps[2].Wait != -1 || deps[2].FIFO != 0 {
		t.Fatalf("unmatched wait dep = %+v", deps[2])
	}
}

// runOf builds a minimal analyzed Run for Diff tests: one aligned batch with
// the given wall time and per-class blame.
func runOf(wall float64, blame map[string]float64) *Run {
	return &Run{
		TotalUs: wall,
		Batches: []*BatchAnalysis{{
			Batch: 1, Phase: "wired", WallUs: wall,
			PathBlame: blame,
			IdleUs:    map[string]float64{},
		}},
	}
}

func TestDiffIdenticalRunsMarshals(t *testing.T) {
	// Regression guard: diffing a run against itself must yield zero deltas
	// with an empty TopClass and share 0 — never NaN, which would make
	// astra-analyze -diff -json fail at json.Marshal.
	a := runOf(100, map[string]float64{obs.ClassGEMM: 60, ClassDispatch: 40})
	d := Diff(a, a)
	if d.DeltaUs != 0 || d.AlignedDeltaUs != 0 || d.AlignedBatches != 1 {
		t.Fatalf("self-diff = %+v", d)
	}
	if d.TopClass != "" || d.TopClassShare != 0 {
		t.Fatalf("self-diff blame = %q/%v, want \"\"/0", d.TopClass, d.TopClassShare)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("self-diff does not marshal: %v", err)
	}
}

func TestDiffCancellingDeltasZeroShare(t *testing.T) {
	// Per-class deltas that cancel exactly (gemm +10, ew −10) leave a zero
	// aligned delta: dividing by it would be ±Inf. No net delta → no blame.
	a := runOf(100, map[string]float64{obs.ClassGEMM: 50, obs.ClassEW: 50})
	b := runOf(100, map[string]float64{obs.ClassGEMM: 60, obs.ClassEW: 40})
	d := Diff(a, b)
	if d.AlignedDeltaUs != 0 {
		t.Fatalf("aligned delta = %v", d.AlignedDeltaUs)
	}
	if d.TopClass != "" || d.TopClassShare != 0 {
		t.Fatalf("cancelling blame = %q/%v, want \"\"/0", d.TopClass, d.TopClassShare)
	}
	if d.ByClass[obs.ClassGEMM] != 10 || d.ByClass[obs.ClassEW] != -10 {
		t.Fatalf("by-class = %v", d.ByClass)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("cancelling diff does not marshal: %v", err)
	}
}

func TestDiffTopClassShareOfAbsoluteDelta(t *testing.T) {
	// A speedup (negative delta) must report the share as a fraction of
	// |AlignedDeltaUs|: gemm −30 of a −30 total is share −1 (sign carries
	// the direction of the top class's own delta).
	a := runOf(100, map[string]float64{obs.ClassGEMM: 60, obs.ClassEW: 40})
	b := runOf(70, map[string]float64{obs.ClassGEMM: 30, obs.ClassEW: 40})
	d := Diff(a, b)
	if d.TopClass != obs.ClassGEMM || d.TopClassShare != -1 {
		t.Fatalf("speedup blame = %q/%v, want %q/-1", d.TopClass, d.TopClassShare, obs.ClassGEMM)
	}
}

func TestConvergePriorCountersFromEvents(t *testing.T) {
	// The prior_* event fields are cumulative, so the report totals are the
	// maxima across the log — and they survive into the converge text only
	// when nonzero (unguided reports must stay byte-identical).
	events := []obs.TrialEvent{
		{Phase: "explore", Trial: 1, BatchUs: 10, TotalVars: 2, FrozenVars: 1,
			PriorHits: 1, PriorPruned: 2},
		{Phase: "explore", Trial: 2, BatchUs: 10, TotalVars: 2, FrozenVars: 2,
			PriorHits: 1, PriorMisses: 1, PriorPruned: 3, PriorRankInv: 2},
		{Phase: "wired", Trial: 2, Batch: 3, BatchUs: 8, TotalVars: 2, FrozenVars: 2,
			PriorHits: 1, PriorMisses: 1, PriorPruned: 3, PriorRankInv: 2},
	}
	c := convergeFromEvents(events)
	if c.PriorHits != 1 || c.PriorMisses != 1 || c.PriorPruned != 3 || c.PriorRankInversions != 2 {
		t.Fatalf("prior counters = %d/%d/%d/%d, want 1/1/3/2",
			c.PriorHits, c.PriorMisses, c.PriorPruned, c.PriorRankInversions)
	}
	var buf strings.Builder
	if err := WriteConvergeReport(&buf, &Run{Converge: c}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(buf.String(), "prior: 1 hit(s) / 1 miss(es) at freeze, 3 candidate(s) pruned, rank inversions 2") {
		t.Fatalf("converge report missing prior line:\n%s", buf.String())
	}

	// An unguided log renders no prior line at all.
	for i := range events {
		events[i].PriorHits, events[i].PriorMisses = 0, 0
		events[i].PriorPruned, events[i].PriorRankInv = 0, 0
	}
	buf.Reset()
	if err := WriteConvergeReport(&buf, &Run{Converge: convergeFromEvents(events)}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if strings.Contains(buf.String(), "prior:") {
		t.Fatalf("unguided converge report grew a prior line:\n%s", buf.String())
	}
}

func TestDiffSurfacesTrialDeltas(t *testing.T) {
	// `-diff cold.jsonl guided.jsonl` must surface the trial saving: the
	// convergence deltas are B − A, negative when the guided run froze
	// earlier.
	a := runOf(100, map[string]float64{obs.ClassGEMM: 100})
	a.Converge = &ConvergeReport{Trials: 17, TrialsToFreeze: 17}
	b := runOf(100, map[string]float64{obs.ClassGEMM: 100})
	b.Converge = &ConvergeReport{Trials: 11, TrialsToFreeze: 11}
	d := Diff(a, b)
	if d.TrialsA != 17 || d.TrialsB != 11 || d.TrialsDelta != -6 {
		t.Fatalf("trials = %d/%d/%d, want 17/11/-6", d.TrialsA, d.TrialsB, d.TrialsDelta)
	}
	if d.TrialsToFreezeDelta != -6 {
		t.Fatalf("to-freeze delta = %d, want -6", d.TrialsToFreezeDelta)
	}
	var buf strings.Builder
	if err := WriteDiffReport(&buf, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(buf.String(), "convergence: trials 17 → 11 (-6), to-freeze 17 → 11 (-6)") {
		t.Fatalf("diff report missing convergence line:\n%s", buf.String())
	}
	// Runs without convergence analytics (nil Converge) stay zero-valued.
	if d0 := Diff(runOf(1, nil), runOf(1, nil)); d0.TrialsDelta != 0 || d0.TrialsA != 0 {
		t.Fatalf("nil-converge diff = %+v", d0)
	}
}

func TestVerifyChainRejects(t *testing.T) {
	bad := [][]Segment{
		{{StartUs: 5, EndUs: 10}},                          // does not start at 0
		{{StartUs: 0, EndUs: 4}, {StartUs: 5, EndUs: 10}},  // gap
		{{StartUs: 0, EndUs: 6}, {StartUs: 5, EndUs: 10}},  // overlap
		{{StartUs: 0, EndUs: 9}},                           // short of horizon
		{{StartUs: 0, EndUs: 10}, {StartUs: 10, EndUs: 9}}, // backwards
	}
	for i, segs := range bad {
		if err := verifyChain(segs, 10); err == nil {
			t.Errorf("case %d accepted: %+v", i, segs)
		}
	}
	if err := verifyChain(nil, 0); err != nil {
		t.Errorf("empty chain at zero horizon: %v", err)
	}
	if err := verifyChain(nil, 1); err == nil {
		t.Error("empty chain accepted for positive horizon")
	}
}
