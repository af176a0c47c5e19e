package wire

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/obs"
)

func commSession(t *testing.T, workers int, adapt bool, cfgMod func(*SessionConfig)) *Session {
	t.Helper()
	build, ok := models.Get("sublstm")
	if !ok {
		t.Fatal("model sublstm")
	}
	m := build(models.TinyConfig("sublstm", 2))
	opts := enumerate.PresetOptions(enumerate.PresetFK)
	opts.CommAdapt = adapt
	opts.Workers = workers
	cfg := SessionConfig{
		Device:  gpusim.P100(),
		Options: opts,
		Runner:  RunnerConfig{PerOpCPUUs: 2},
		Comm: CommConfig{
			Workers:    workers,
			BytesPerUs: 11000,
			LatencyUs:  8,
			Fabric:     "pcie3",
		},
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	return NewSession(m, cfg)
}

func TestCommDisabledBelowTwoWorkers(t *testing.T) {
	s := commSession(t, 1, true, nil)
	if len(s.Peers) != 0 {
		t.Fatalf("single-worker session grew %d peers", len(s.Peers))
	}
	if s.Plan.CommBucketVar != nil || s.Plan.CommPlaceVar != nil {
		t.Fatal("comm variables enumerated for a single worker")
	}
	res := s.Step()
	if res.CommKernels != 0 || len(res.WorkerUs) != 0 {
		t.Fatalf("single-worker batch exchanged gradients: %+v", res)
	}
}

func TestCommVariablesEnumerated(t *testing.T) {
	s := commSession(t, 4, true, nil)
	if s.Plan.CommBucketVar == nil || s.Plan.CommPlaceVar == nil {
		t.Fatal("comm variables missing with CommAdapt on")
	}
	if len(s.Plan.Grads) == 0 {
		t.Fatal("no gradient sites")
	}
	if s.Plan.GradBytes() <= 0 {
		t.Fatal("no gradient payload")
	}
	// Every parameter with a gradient must have a site, in dispatch order.
	order := map[*enumerate.Unit]int{}
	seq := 0
	for _, se := range s.Plan.Supers {
		for _, ep := range se.Epochs {
			for _, u := range ep.Units {
				order[u] = seq
				seq++
			}
		}
	}
	prev := -1
	for _, g := range s.Plan.Grads {
		if order[g.Unit] < prev {
			t.Fatal("gradient sites out of dispatch order")
		}
		prev = order[g.Unit]
		if g.Bytes <= 0 {
			t.Fatalf("gradient %v has no payload", g.Param)
		}
	}
}

func TestBucketPartitionRespectsCap(t *testing.T) {
	s := commSession(t, 4, false, func(cfg *SessionConfig) {
		cfg.Comm.DefaultBucketKB = 1 // 1 KB cap: tiny model grads overflow it
	})
	buckets := s.Runner.Program().Buckets
	if len(buckets) < 2 {
		t.Fatalf("1 KB cap produced %d bucket(s)", len(buckets))
	}
	var total int64
	grads := 0
	for i, b := range buckets {
		total += b.Bytes
		grads += b.Grads
		// Every bucket but the last must have hit the cap.
		if i < len(buckets)-1 && b.Bytes < 1024 {
			t.Fatalf("bucket %d closed below cap: %d bytes", i, b.Bytes)
		}
	}
	if total != s.Plan.GradBytes() {
		t.Fatalf("buckets hold %d bytes, gradients total %d", total, s.Plan.GradBytes())
	}
	if grads != len(s.Plan.Grads) {
		t.Fatalf("buckets hold %d gradients, plan has %d", grads, len(s.Plan.Grads))
	}

	// Cap 0: one bucket with everything.
	one := commSession(t, 4, false, nil)
	buckets = one.Runner.Program().Buckets
	if len(buckets) != 1 || buckets[0].Bytes != one.Plan.GradBytes() {
		t.Fatalf("uncapped partition: %+v", buckets)
	}
}

// ringStream returns the stream the runner's program issues ring steps on.
func ringStream(t *testing.T, r *Runner) int {
	t.Helper()
	for st, ops := range r.Program().Streams {
		for _, op := range ops {
			if op.Bucket >= 0 {
				return st
			}
		}
	}
	t.Fatal("program has no ring steps")
	return -1
}

func TestCommPlacementStreams(t *testing.T) {
	overlap := commSession(t, 4, false, nil)
	if st := ringStream(t, overlap.Runner); st != overlap.Runner.CommStream() || st == 0 {
		t.Fatalf("default placement should use the dedicated comm stream, got %d", st)
	}
	bulk := commSession(t, 4, false, func(cfg *SessionConfig) {
		cfg.Comm.DefaultPlacement = "main"
	})
	if st := ringStream(t, bulk.Runner); st != 0 {
		t.Fatalf("main placement should use stream 0, got %d", st)
	}
}

func TestMultiWorkerStepAggregates(t *testing.T) {
	s := commSession(t, 4, true, nil)
	s.Explore()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	res := s.Step()
	if len(res.WorkerUs) != 4 {
		t.Fatalf("WorkerUs = %v", res.WorkerUs)
	}
	max := 0.0
	for _, w := range res.WorkerUs {
		if w > max {
			max = w
		}
	}
	if res.TotalUs != max {
		t.Fatalf("cluster step %v != slowest worker %v", res.TotalUs, max)
	}
	if res.CommKernels == 0 || res.CommUs <= 0 {
		t.Fatalf("wired batch exchanged nothing: %+v", res)
	}
}

// workerRecordDump serializes one worker's device records for byte-level
// comparison across runs.
func workerRecordDump(b *bytes.Buffer, rank int, recs []*gpusim.KernelRecord) {
	for _, r := range recs {
		fmt.Fprintf(b, "w%d %s s%d launch=%.6f start=%.6f end=%.6f tiles=%d\n",
			rank, r.Name, r.Stream, r.LaunchUs, r.StartUs, r.EndUs, r.Tiles)
	}
}

// TestMultiGPUSameSeedByteIdentical is the multi-worker determinism
// regression: two identical sessions (same seed, autoboost jitter on, comm
// exploration on) must produce byte-identical session event logs AND
// byte-identical per-worker kernel timelines for the final wired batch.
func TestMultiGPUSameSeedByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte) {
		s := commSession(t, 3, true, func(cfg *SessionConfig) {
			cfg.Device.Autoboost = true
		})
		tel := obs.NewTelemetry()
		var events bytes.Buffer
		tel.SetEventSink(&events)
		s.Instrument(tel)
		s.Explore()
		for i := 0; i < 2; i++ {
			s.Step()
		}
		var recs bytes.Buffer
		workerRecordDump(&recs, 0, s.Runner.Dev.Records())
		for i, p := range s.Peers {
			workerRecordDump(&recs, i+1, p.Dev.Records())
		}
		return events.Bytes(), recs.Bytes()
	}
	ev1, rec1 := run()
	ev2, rec2 := run()
	if len(ev1) == 0 || len(rec1) == 0 {
		t.Fatal("empty run")
	}
	if !bytes.Equal(ev1, ev2) {
		t.Fatal("same-seed multi-GPU sessions produced different event logs")
	}
	if !bytes.Equal(rec1, rec2) {
		t.Fatal("same-seed multi-GPU sessions produced different per-worker kernel timelines")
	}
}

// TestPeerSeedsDiffer: the peers' devices must not share the base RNG
// stream, or per-worker noise would be perfectly correlated and the
// max-over-workers aggregation meaningless.
func TestPeerSeedsDiffer(t *testing.T) {
	s := commSession(t, 3, false, func(cfg *SessionConfig) {
		cfg.Device.Autoboost = true // jitter makes seed differences visible
	})
	res := s.Step()
	if len(res.WorkerUs) != 3 {
		t.Fatalf("WorkerUs = %v", res.WorkerUs)
	}
	if res.WorkerUs[0] == res.WorkerUs[1] && res.WorkerUs[1] == res.WorkerUs[2] {
		t.Fatal("all workers identical under jitter: peer seeds not derived")
	}
}

// TestMultiWorkerTelemetry: an instrumented multi-GPU session must put each
// worker's device in its own trace pid block, name the comm-stream lanes,
// register the distsim.* metrics, and stamp the per-worker fields onto
// every event-log record.
func TestMultiWorkerTelemetry(t *testing.T) {
	s := commSession(t, 3, true, nil)
	tel := obs.NewTelemetry()
	var events bytes.Buffer
	tel.SetEventSink(&events)
	s.Instrument(tel)
	s.Explore()
	s.Step()
	s.CloseTelemetry()

	// Per-worker pid blocks: rank 1's device pid must appear among spans.
	peerPID := obs.WorkerPID(obs.PIDDevice, 1)
	found := false
	for _, ev := range tel.Trace.Events() {
		if ev.PID == peerPID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no spans on peer device pid %d", peerPID)
	}

	var prom bytes.Buffer
	if err := tel.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"distsim_workers", "distsim_comm_us", "distsim_comm_kernels"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, prom.String())
		}
	}

	recs, err := obs.ReadTrialEvents(bytes.NewReader(events.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no event records")
	}
	for _, r := range recs {
		if r.Workers != 3 || len(r.WorkerUs) != 3 {
			t.Fatalf("record missing worker fields: %+v", r)
		}
		if r.CommUs <= 0 {
			t.Fatalf("record missing comm time: %+v", r)
		}
	}
}

// TestEventRecordsOwnTheirSlices: Step refills one session-owned WorkerUs
// slice and the explorer one list of the variables that froze, so each
// batch's event record must keep copies; a record sharing either would
// change under it as later batches run.
func TestEventRecordsOwnTheirSlices(t *testing.T) {
	s := commSession(t, 2, true, nil)
	s.Instrument(obs.NewTelemetry())
	var events []obs.TrialEvent
	var keptUs [][]float64
	var keptFroze [][]string
	var backing *float64
	for i := 0; !s.Done(); i++ {
		res := s.Step()
		if len(res.WorkerUs) != 2 {
			t.Fatalf("batch %d: WorkerUs = %v, want 2 workers", i, res.WorkerUs)
		}
		if i == 0 {
			backing = &res.WorkerUs[0]
		} else if &res.WorkerUs[0] != backing {
			t.Fatalf("batch %d got a new WorkerUs slice: the session should refill one", i)
		}
		froze := s.Exp.Froze()
		ev := s.trialEvent(&res, nil, froze, "explore", false)
		if &ev.WorkerUs[0] == backing {
			t.Fatalf("batch %d's event record shares the session's WorkerUs slice", i)
		}
		if len(froze) > 0 && &ev.Froze[0] == &froze[0] {
			t.Fatalf("batch %d's event record shares the explorer's froze list", i)
		}
		events = append(events, ev)
		keptUs = append(keptUs, slices.Clone(res.WorkerUs))
		keptFroze = append(keptFroze, slices.Clone(froze))
	}
	changedUs, froze := false, 0
	for i, ev := range events {
		if !slices.Equal(ev.WorkerUs, keptUs[i]) || !slices.Equal(ev.Froze, keptFroze[i]) {
			t.Fatalf("batch %d's event record changed after later batches", i)
		}
		changedUs = changedUs || (i > 0 && !slices.Equal(keptUs[i], keptUs[i-1]))
		froze += len(ev.Froze)
	}
	if !changedUs || froze == 0 {
		t.Fatalf("worker times never changed (%v) or nothing froze (%d): the test shows nothing", changedUs, froze)
	}
}
