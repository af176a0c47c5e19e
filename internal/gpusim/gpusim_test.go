package gpusim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"astra/internal/obs"
)

func testConfig() Config {
	return Config{
		NumSMs:                 56,
		LaunchOverheadUs:       7,
		KernelSetupUs:          1,
		HostTransferLatencyUs:  12,
		HostTransferBytesPerUs: 11000,
		Seed:                   1,
	}
}

func TestSingleKernelWaveQuantization(t *testing.T) {
	// ceil(tiles/SMs) waves × tile time + setup.
	cases := []struct {
		tiles int
		waves float64
	}{
		{1, 1}, {56, 1}, {57, 2}, {112, 2}, {113, 3},
	}
	for _, c := range cases {
		d := NewDevice(testConfig())
		rec := d.Launch(0, KernelSpec{Name: "k", Tiles: c.tiles, TileTimeUs: 10})
		d.Synchronize()
		want := 1 + c.waves*10 // setup + waves
		if got := rec.DurationUs(); math.Abs(got-want) > 1e-9 {
			t.Errorf("tiles=%d: duration %v, want %v", c.tiles, got, want)
		}
	}
}

func TestLaunchOverheadOnCPU(t *testing.T) {
	d := NewDevice(testConfig())
	for i := 0; i < 10; i++ {
		d.Launch(0, KernelSpec{Name: "k", Tiles: 1, TileTimeUs: 1})
	}
	if got := d.CPUTimeUs(); got != 70 {
		t.Fatalf("CPU time %v, want 70 (10 launches x 7us)", got)
	}
}

func TestStreamFIFO(t *testing.T) {
	d := NewDevice(testConfig())
	a := d.Launch(0, KernelSpec{Name: "a", Tiles: 10, TileTimeUs: 10})
	b := d.Launch(0, KernelSpec{Name: "b", Tiles: 10, TileTimeUs: 10})
	d.Synchronize()
	if b.StartUs < a.EndUs {
		t.Fatalf("same-stream kernels overlapped: a ends %v, b starts %v", a.EndUs, b.StartUs)
	}
}

func TestTwoStreamsOverlap(t *testing.T) {
	// Two small kernels on different streams overlap; total device span is
	// far less than the sequential sum.
	d := NewDevice(testConfig())
	d.EnsureStreams(2)
	a := d.Launch(0, KernelSpec{Name: "a", Tiles: 10, TileTimeUs: 100})
	b := d.Launch(1, KernelSpec{Name: "b", Tiles: 10, TileTimeUs: 100})
	d.Synchronize()
	if b.StartUs >= a.EndUs {
		t.Fatalf("streams did not overlap: a [%v,%v], b [%v,%v]", a.StartUs, a.EndUs, b.StartUs, b.EndUs)
	}
	span := math.Max(a.EndUs, b.EndUs) - math.Min(a.StartUs, b.StartUs)
	if span > 150 {
		t.Fatalf("span %v too large for overlapped execution", span)
	}
}

func TestSMContentionSlowsKernels(t *testing.T) {
	// Two multi-wave kernels sharing 56 SMs must each slow down relative
	// to running alone (they split the machine after the first wave).
	alone := NewDevice(testConfig())
	r := alone.Launch(0, KernelSpec{Name: "a", Tiles: 112, TileTimeUs: 10})
	alone.Synchronize()

	shared := NewDevice(testConfig())
	shared.EnsureStreams(2)
	r1 := shared.Launch(0, KernelSpec{Name: "a", Tiles: 112, TileTimeUs: 10})
	r2 := shared.Launch(1, KernelSpec{Name: "b", Tiles: 112, TileTimeUs: 10})
	shared.Synchronize()
	if r1.DurationUs() <= r.DurationUs() && r2.DurationUs() <= r.DurationUs() {
		t.Fatalf("contention had no effect: alone %v, shared %v/%v",
			r.DurationUs(), r1.DurationUs(), r2.DurationUs())
	}
	// But the pair still finishes no later than running them back-to-back.
	seq := NewDevice(testConfig())
	seq.Launch(0, KernelSpec{Name: "a", Tiles: 112, TileTimeUs: 10})
	s2 := seq.Launch(0, KernelSpec{Name: "b", Tiles: 112, TileTimeUs: 10})
	seq.Synchronize()
	parEnd := math.Max(r1.EndUs, r2.EndUs)
	if parEnd > s2.EndUs+1e-9 {
		t.Fatalf("parallel %v worse than sequential %v", parEnd, s2.EndUs)
	}
}

func TestSmallKernelsOnStreamsBeatSequential(t *testing.T) {
	// Underutilizing kernels (tiles << SMs) benefit from streams: four
	// 8-tile kernels on 4 streams run concurrently.
	cfg := testConfig()
	seq := NewDevice(cfg)
	for i := 0; i < 4; i++ {
		seq.Launch(0, KernelSpec{Name: "k", Tiles: 8, TileTimeUs: 50})
	}
	seq.Synchronize()
	seqEnd := seq.Records()[3].EndUs

	par := NewDevice(cfg)
	par.EnsureStreams(4)
	for i := 0; i < 4; i++ {
		par.Launch(i, KernelSpec{Name: "k", Tiles: 8, TileTimeUs: 50})
	}
	par.Synchronize()
	parEnd := 0.0
	for _, r := range par.Records() {
		parEnd = math.Max(parEnd, r.EndUs)
	}
	if parEnd >= seqEnd*0.5 {
		t.Fatalf("4-stream end %v not much better than sequential %v", parEnd, seqEnd)
	}
}

func TestEventsResolveInStreamOrder(t *testing.T) {
	d := NewDevice(testConfig())
	e0 := d.RecordEvent(0)
	k := d.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 10})
	e1 := d.RecordEvent(0)
	d.Synchronize()
	if !e0.Resolved() || !e1.Resolved() {
		t.Fatal("events unresolved after sync")
	}
	// e0 resolves immediately (empty stream); e1 resolves when the kernel
	// retires, so elapsed covers the launch gap plus the kernel itself —
	// exactly what a cudaEvent pair around an enqueued region measures.
	if got, want := Elapsed(e0, e1), k.EndUs-e0.TimeUs(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("elapsed %v, want %v", got, want)
	}
	if Elapsed(e0, e1) < k.DurationUs() {
		t.Fatal("elapsed shorter than kernel duration")
	}
}

func TestUnresolvedEventPanics(t *testing.T) {
	d := NewDevice(testConfig())
	d.Launch(0, KernelSpec{Name: "k", Tiles: 1, TileTimeUs: 1})
	e := d.RecordEvent(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading unresolved event")
		}
	}()
	_ = e.TimeUs()
}

func TestWaitEventOrdersAcrossStreams(t *testing.T) {
	d := NewDevice(testConfig())
	d.EnsureStreams(2)
	a := d.Launch(0, KernelSpec{Name: "a", Tiles: 56, TileTimeUs: 20})
	e := d.RecordEvent(0)
	d.WaitEvent(1, e)
	b := d.Launch(1, KernelSpec{Name: "b", Tiles: 1, TileTimeUs: 1})
	d.Synchronize()
	if b.StartUs < a.EndUs {
		t.Fatalf("dependent kernel started at %v before producer ended at %v", b.StartUs, a.EndUs)
	}
}

func TestCrossStreamWaitDeadlockDetected(t *testing.T) {
	d := NewDevice(testConfig())
	d.EnsureStreams(2)
	// Stream 1 waits on an event that is recorded on stream 0 *after* a
	// wait on an event recorded on stream 1 — a cycle.
	e1 := d.RecordEvent(1) // resolves immediately, fine
	d.WaitEvent(0, e1)
	// Build an actual cycle: wait on an event that is never recorded
	// because its stream is blocked.
	pending := &Event{}
	d.WaitEvent(0, pending)
	d.Launch(0, KernelSpec{Name: "k", Tiles: 1, TileTimeUs: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	d.Synchronize()
}

func TestDeterminismWithoutAutoboost(t *testing.T) {
	run := func() []float64 {
		d := NewDevice(testConfig())
		d.EnsureStreams(3)
		var out []float64
		for i := 0; i < 30; i++ {
			r := d.Launch(i%3, KernelSpec{Name: "k", Tiles: 5 + i%13, TileTimeUs: 3 + float64(i%7)})
			_ = r
		}
		d.Synchronize()
		for _, r := range d.Records() {
			out = append(out, r.StartUs, r.EndUs)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAutoboostIntroducesVariance(t *testing.T) {
	cfg := testConfig()
	cfg.Autoboost = true
	cfg.BoostJitter = 0.1
	d := NewDevice(cfg)
	durations := map[float64]bool{}
	for i := 0; i < 20; i++ {
		d.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 10})
	}
	d.Synchronize()
	for _, r := range d.Records() {
		durations[r.DurationUs()] = true
	}
	if len(durations) < 5 {
		t.Fatalf("autoboost produced only %d distinct durations", len(durations))
	}
	// §7: identical kernels must be repeatable with autoboost off.
	cfg.Autoboost = false
	d2 := NewDevice(cfg)
	for i := 0; i < 20; i++ {
		d2.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 10})
	}
	d2.Synchronize()
	first := d2.Records()[0].DurationUs()
	for _, r := range d2.Records() {
		if r.DurationUs() != first {
			t.Fatal("pinned clock not repeatable")
		}
	}
}

func TestJitterVariesAcrossBatchesDeterministically(t *testing.T) {
	// The same kernel re-measured in a later batch must see different
	// jitter (multi-sample averaging needs independent noise), yet two
	// devices with the same seed must agree batch for batch.
	cfg := testConfig()
	cfg.Autoboost = true
	cfg.BoostJitter = 0.1
	run := func() []float64 {
		d := NewDevice(cfg)
		var out []float64
		for b := 0; b < 3; b++ {
			d.Reset()
			r := d.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 10})
			d.Synchronize()
			out = append(out, r.DurationUs())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatalf("jitter identical across batches: %v", a)
	}
}

func TestStragglerInjectionDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{StragglerProb: 0.2, StragglerFactor: 4, Seed: 7}
	run := func() (slow int, durations []float64) {
		d := NewDevice(cfg)
		d.Reset()
		for i := 0; i < 50; i++ {
			d.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 10})
		}
		d.Synchronize()
		for _, r := range d.Records() {
			durations = append(durations, r.DurationUs())
			if r.DurationUs() > 20 { // 4x straggler clearly separated from 1x
				slow++
			}
		}
		return slow, durations
	}
	slowA, dursA := run()
	slowB, dursB := run()
	if slowA == 0 || slowA == 50 {
		t.Fatalf("straggler count %d/50 implausible for p=0.2", slowA)
	}
	if slowA != slowB {
		t.Fatalf("straggler pattern not deterministic: %d vs %d", slowA, slowB)
	}
	for i := range dursA {
		if dursA[i] != dursB[i] {
			t.Fatalf("kernel %d differs across same-seed runs", i)
		}
	}
}

func TestThrottleWindow(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{ThrottleStartBatch: 3, ThrottleBatches: 2, ThrottleFactor: 1.5}
	d := NewDevice(cfg)
	baseline := 0.0
	for b := 1; b <= 6; b++ {
		d.Reset()
		if want := b; d.Batch() != want {
			t.Fatalf("Batch = %d, want %d", d.Batch(), want)
		}
		r := d.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 10})
		d.Synchronize()
		inWindow := b >= 3 && b < 5
		if d.Throttled() != inWindow {
			t.Fatalf("batch %d: Throttled = %v", b, d.Throttled())
		}
		if b == 1 {
			baseline = r.DurationUs()
		}
		if inWindow && r.DurationUs() < baseline*1.4 {
			t.Fatalf("batch %d inside window not throttled: %v vs baseline %v", b, r.DurationUs(), baseline)
		}
		if !inWindow && r.DurationUs() != baseline {
			t.Fatalf("batch %d outside window throttled: %v vs baseline %v", b, r.DurationUs(), baseline)
		}
	}
	// Open-ended window: ThrottleBatches <= 0 throttles to session end.
	cfg.Faults = FaultConfig{ThrottleStartBatch: 2, ThrottleFactor: 1.5}
	d2 := NewDevice(cfg)
	d2.Reset() // batch 1
	if d2.Throttled() {
		t.Fatal("throttled before window start")
	}
	for b := 2; b <= 10; b++ {
		d2.Reset()
		if !d2.Throttled() {
			t.Fatalf("open-ended window closed at batch %d", b)
		}
	}
	if !cfg.Faults.Enabled() || (FaultConfig{}).Enabled() {
		t.Fatal("FaultConfig.Enabled wrong")
	}
}

func TestThrottleClassMatchesClassNotPrefix(t *testing.T) {
	// Regression: ThrottleClass used to match by name prefix, so throttling
	// "gemm" also hit any kernel whose *name* merely starts with "gemm" —
	// here "gemmish_x", which classifies as "other". The throttle must hit
	// exactly the named class (obs.KernelClass), nothing else.
	cfg := testConfig()
	cfg.Faults = FaultConfig{ThrottleStartBatch: 1, ThrottleFactor: 2, ThrottleClass: obs.ClassGEMM}
	d := NewDevice(cfg)
	d.Reset()
	hit := d.Launch(0, KernelSpec{Name: "gemm_fwd", Tiles: 56, TileTimeUs: 10})
	miss := d.Launch(0, KernelSpec{Name: "gemmish_x", Tiles: 56, TileTimeUs: 10})
	d.Synchronize()
	if got := hit.DurationUs(); got != 1+20 {
		t.Fatalf("gemm-class kernel not throttled: duration %v, want 21", got)
	}
	if got := miss.DurationUs(); got != 1+10 {
		t.Fatalf("prefix-sharing other-class kernel throttled: duration %v, want 11", got)
	}
	// And the other direction: the class the prefix-shared kernel actually
	// belongs to throttles it, leaving the gemm kernel alone.
	cfg.Faults.ThrottleClass = obs.ClassOther
	d2 := NewDevice(cfg)
	d2.Reset()
	g := d2.Launch(0, KernelSpec{Name: "gemm_fwd", Tiles: 56, TileTimeUs: 10})
	o := d2.Launch(0, KernelSpec{Name: "gemmish_x", Tiles: 56, TileTimeUs: 10})
	d2.Synchronize()
	if g.DurationUs() != 11 || o.DurationUs() != 21 {
		t.Fatalf("class=other: gemm %v (want 11), other %v (want 21)", g.DurationUs(), o.DurationUs())
	}
}

func TestCostOverrideScalesClassDeterministically(t *testing.T) {
	d := NewDevice(testConfig())
	d.SetCostOverride(CostOverride{ClassTimeFactors: map[string]float64{
		obs.ClassGEMM: 0.5,
		obs.ClassEW:   0, // non-positive factors are ignored
	}})
	d.Reset()
	g := d.Launch(0, KernelSpec{Name: "gemm_fwd", Tiles: 56, TileTimeUs: 10})
	e := d.Launch(0, KernelSpec{Name: "ew_add", Tiles: 56, TileTimeUs: 10})
	c := d.Launch(0, KernelSpec{Name: "copyH2D", Tiles: 56, TileTimeUs: 10})
	d.Synchronize()
	if g.DurationUs() != 1+5 {
		t.Fatalf("gemm with 0.5 override: duration %v, want 6", g.DurationUs())
	}
	if e.DurationUs() != 11 || c.DurationUs() != 11 {
		t.Fatalf("unaffected kernels changed: ew %v, copy %v (want 11)", e.DurationUs(), c.DurationUs())
	}
	// Clearing restores baseline.
	d.SetCostOverride(CostOverride{})
	d.Reset()
	g2 := d.Launch(0, KernelSpec{Name: "gemm_fwd", Tiles: 56, TileTimeUs: 10})
	d.Synchronize()
	if g2.DurationUs() != 11 {
		t.Fatalf("override not cleared: duration %v, want 11", g2.DurationUs())
	}
}

func TestResetClearsState(t *testing.T) {
	d := NewDevice(testConfig())
	d.Launch(0, KernelSpec{Name: "k", Tiles: 8, TileTimeUs: 2})
	d.Synchronize()
	d.Reset()
	if d.CPUTimeUs() != 0 || len(d.Records()) != 0 || d.SMBusyUs() != 0 {
		t.Fatal("Reset left residue")
	}
	r := d.Launch(0, KernelSpec{Name: "k", Tiles: 8, TileTimeUs: 2})
	d.Synchronize()
	if r.StartUs > 10 {
		t.Fatalf("post-reset kernel starts at %v", r.StartUs)
	}
}

func TestHostTransferBlocksCPU(t *testing.T) {
	d := NewDevice(testConfig())
	d.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 100})
	before := d.CPUTimeUs()
	d.HostTransfer(0, 1_100_000) // 1.1MB at 11000 B/us = 100us + 12us latency
	after := d.CPUTimeUs()
	if after-before < 100 {
		t.Fatalf("host transfer advanced CPU by only %v", after-before)
	}
}

func TestSMBusyAccounting(t *testing.T) {
	d := NewDevice(testConfig())
	d.Launch(0, KernelSpec{Name: "k", Tiles: 112, TileTimeUs: 10})
	d.Synchronize()
	if got, want := d.SMBusyUs(), 1120.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("SMBusyUs = %v, want %v", got, want)
	}
}

func TestBadSpecsPanic(t *testing.T) {
	d := NewDevice(testConfig())
	for _, spec := range []KernelSpec{{Tiles: 0, TileTimeUs: 1}, {Tiles: 1, TileTimeUs: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("accepted bad spec %+v", spec)
				}
			}()
			d.Launch(0, spec)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("accepted bad stream")
			}
		}()
		d.Launch(5, KernelSpec{Tiles: 1, TileTimeUs: 1})
	}()
}

// TestBoostJitterRange: with autoboost on, a jitter amplitude outside
// [0, 1) panics at construction, since at 1 or more a tile time can be
// scaled to zero or below; any amplitude is accepted with autoboost off,
// where it is never read. Just inside the range every launch keeps a
// positive duration.
func TestBoostJitterRange(t *testing.T) {
	for _, j := range []float64{1, 5, -0.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDevice accepted BoostJitter %v with autoboost on", j)
				}
			}()
			cfg := testConfig()
			cfg.Autoboost, cfg.BoostJitter = true, j
			NewDevice(cfg)
		}()
		cfg := testConfig()
		cfg.BoostJitter = j
		NewDevice(cfg)
	}
	cfg := testConfig()
	cfg.Autoboost, cfg.BoostJitter = true, 0.999
	d := NewDevice(cfg)
	d.Reset()
	for i := 0; i < 200; i++ {
		d.Launch(0, KernelSpec{Tiles: 1, TileTimeUs: 10})
	}
	d.Synchronize()
	for _, rec := range d.Records() {
		if rec.TileTimeUs <= 0 || rec.DurationUs() <= 0 {
			t.Fatalf("jitter 0.999 gave %s a tile time of %v us", rec.Name, rec.TileTimeUs)
		}
	}
}

// TestConservationProperty: for random workloads, total SM busy time equals
// the sum of tiles × tile time, and no kernel ends before it starts.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d := NewDevice(testConfig())
		d.EnsureStreams(4)
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		want := 0.0
		for i := 0; i < 25; i++ {
			tiles := 1 + next(130)
			tt := 1 + float64(next(20))
			d.Launch(next(4), KernelSpec{Name: "k", Tiles: tiles, TileTimeUs: tt})
			want += float64(tiles) * tt
		}
		d.Synchronize()
		if math.Abs(d.SMBusyUs()-want) > 1e-6 {
			return false
		}
		for _, r := range d.Records() {
			if r.EndUs < r.StartUs || r.StartUs < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSerializationProperty: kernels on the same stream never overlap
// regardless of workload.
func TestStreamSerializationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d := NewDevice(testConfig())
		d.EnsureStreams(3)
		rng := seed
		next := func(n int) int {
			rng = rng*2862933555777941757 + 3037000493
			return int((rng >> 33) % uint64(n))
		}
		for i := 0; i < 20; i++ {
			d.Launch(next(3), KernelSpec{Name: "k", Tiles: 1 + next(80), TileTimeUs: 1 + float64(next(9))})
		}
		d.Synchronize()
		last := map[int]float64{}
		for _, r := range d.Records() {
			if r.StartUs < last[r.Stream]-1e-9 {
				return false
			}
			last[r.Stream] = r.EndUs
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronizeAdvancesCPUToDeviceEnd(t *testing.T) {
	d := NewDevice(testConfig())
	d.Launch(0, KernelSpec{Name: "k", Tiles: 56, TileTimeUs: 1000})
	d.Synchronize()
	if d.CPUTimeUs() < 1000 {
		t.Fatalf("CPU %v did not wait for device", d.CPUTimeUs())
	}
}

func TestChromeTraceExport(t *testing.T) {
	d := NewDevice(testConfig())
	d.EnsureStreams(2)
	d.Launch(0, KernelSpec{Name: "a", Tiles: 8, TileTimeUs: 5})
	d.Launch(1, KernelSpec{Name: "b", Tiles: 8, TileTimeUs: 5})
	d.Synchronize()
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace obs.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if trace.DisplayTimeUnit == "" {
		t.Fatal("no displayTimeUnit")
	}
	kernels := 0
	procNames := map[string]bool{}
	threadNames := map[string]bool{}
	for _, e := range trace.TraceEvents {
		switch {
		case e.Category == "kernel":
			kernels++
			if e.DurUs <= 0 || e.Phase != "X" {
				t.Fatalf("bad event %+v", e)
			}
		case e.Phase == "M" && e.Name == "process_name":
			procNames[e.Args["name"].(string)] = true
		case e.Phase == "M" && e.Name == "thread_name":
			threadNames[e.Args["name"].(string)] = true
		}
	}
	if kernels != 2 {
		t.Fatalf("kernels in trace = %d", kernels)
	}
	// Perfetto track labels: the device/launch-queue processes and one
	// named track per stream.
	for _, want := range []string{"device", "launch queue"} {
		if !procNames[want] {
			t.Fatalf("no process_name metadata for %q (have %v)", want, procNames)
		}
	}
	for _, want := range []string{"stream 0", "stream 1"} {
		if !threadNames[want] {
			t.Fatalf("no thread_name metadata for %q (have %v)", want, threadNames)
		}
	}
}
