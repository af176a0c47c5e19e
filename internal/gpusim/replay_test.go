package gpusim

import (
	"fmt"
	"math"
	"testing"
)

// A tape is one batch of device calls, issued between a Reset and a
// Synchronize.
type tape struct {
	streams int
	ops     []tapeOp
}

type tapeOpKind int

const (
	opLaunch tapeOpKind = iota
	opRecord
	opWait
	opCPU      // AdvanceCPU
	opTransfer // HostTransfer: a drain inside the batch
)

type tapeOp struct {
	kind   tapeOpKind
	stream int
	spec   KernelSpec
	event  int // opWait: index of an earlier opRecord's event
	tag    string
	us     float64 // opCPU
	bytes  int64   // opTransfer
}

// tapeRNG is a splitmix64 stream: tapes are a pure function of the seed.
type tapeRNG uint64

func (r *tapeRNG) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *tapeRNG) intn(n int) int { return int(r.next() % uint64(n)) }

var tapeNames = []string{"gemm_cublas_64x64x64", "ew_add", "copy", "allreduce.b0.s1"}
var tapeTags = []string{"", "epoch", "barrier", "bucket"}

// randomOp draws one op for a tape whose records so far number records.
func randomOp(r *tapeRNG, streams, records int, transfers bool) tapeOp {
	s := r.intn(streams)
	switch k := r.intn(20); {
	case k < 10:
		spec := KernelSpec{
			Name:       tapeNames[r.intn(len(tapeNames))],
			Tiles:      1 + r.intn(130),
			TileTimeUs: float64(1+r.intn(400)) / 7,
		}
		if r.intn(3) == 0 {
			spec.SetupUs = float64(1+r.intn(30)) / 11
		}
		return tapeOp{kind: opLaunch, stream: s, spec: spec}
	case k < 14:
		return tapeOp{kind: opRecord, stream: s}
	case k < 18 && records > 0:
		return tapeOp{kind: opWait, stream: s, event: r.intn(records), tag: tapeTags[r.intn(len(tapeTags))]}
	case k < 19:
		return tapeOp{kind: opCPU, us: float64(r.intn(50)) / 3}
	case transfers:
		return tapeOp{kind: opTransfer, stream: s, bytes: int64(r.intn(1 << 20))}
	}
	return tapeOp{kind: opCPU, us: 0.5}
}

func randomTape(r *tapeRNG) tape {
	t := tape{streams: 1 + r.intn(4)}
	transfers := r.intn(8) == 0
	n := 1 + r.intn(40)
	records := 0
	for range n {
		op := randomOp(r, t.streams, records, transfers)
		if op.kind == opRecord {
			records++
		}
		t.ops = append(t.ops, op)
	}
	return t
}

// issue runs the tape as one batch on d and returns the events it recorded.
func (t tape) issue(d *Device) []*Event {
	d.Reset()
	d.EnsureStreams(t.streams)
	var evs []*Event
	for _, op := range t.ops {
		switch op.kind {
		case opLaunch:
			d.Launch(op.stream, op.spec)
		case opRecord:
			evs = append(evs, d.RecordEvent(op.stream))
		case opWait:
			d.WaitEventTag(op.stream, evs[op.event], op.tag)
		case opCPU:
			d.AdvanceCPU(op.us)
		case opTransfer:
			d.HostTransfer(op.stream, op.bytes)
		}
	}
	d.Synchronize()
	return evs
}

func (t tape) transfers() bool {
	for _, op := range t.ops {
		if op.kind == opTransfer {
			return true
		}
	}
	return false
}

// mutate returns a copy of t that differs in exactly one place, and names
// the place. Every change reaches the event loop's input, so the batch
// must not replay.
func (t tape) mutate(r *tapeRNG, which int) (tape, string) {
	m := tape{streams: t.streams, ops: append([]tapeOp(nil), t.ops...)}
	pick := func(kind tapeOpKind) int {
		var at []int
		for i, op := range m.ops {
			if op.kind == kind {
				at = append(at, i)
			}
		}
		if len(at) == 0 {
			return -1
		}
		return at[r.intn(len(at))]
	}
	switch which % 9 {
	case 0:
		if i := pick(opLaunch); i >= 0 {
			m.ops[i].spec.TileTimeUs = math.Nextafter(m.ops[i].spec.TileTimeUs, math.Inf(1))
			return m, "tile time"
		}
	case 1:
		if i := pick(opWait); i >= 0 {
			m.ops[i].tag += "'"
			return m, "tag"
		}
	case 2:
		if i := pick(opWait); i >= 0 {
			if recs := m.recordsBefore(i); recs > 1 {
				m.ops[i].event = (m.ops[i].event + 1 + r.intn(recs-1)) % recs
				return m, "wait target"
			}
		}
	case 3:
		if i := pick(opLaunch); i >= 0 {
			m.ops[i].spec.SetupUs = m.ops[i].spec.SetupUs + 0.25
			return m, "setup time"
		}
	case 4:
		m.streams++
		return m, "stream count"
	case 5:
		// One extra item at the end.
		op := randomOp(r, m.streams, m.recordsBefore(len(m.ops)), false)
		if op.kind == opCPU {
			op = tapeOp{kind: opRecord, stream: r.intn(m.streams)}
		}
		m.ops = append(m.ops, op)
		return m, "extra item"
	case 6:
		// One missing item: a launch or a wait (no later wait names them).
		i := pick(opLaunch)
		if i < 0 {
			i = pick(opWait)
		}
		if i >= 0 {
			m.ops = append(m.ops[:i], m.ops[i+1:]...)
			return m, "missing item"
		}
	case 7:
		if i := pick(opLaunch); i >= 0 {
			m.ops[i].spec.Tiles++
			return m, "tiles"
		}
	case 8:
		if i := pick(opLaunch); i >= 0 {
			// Arrival time: the launch comes a little later.
			m.ops = append(m.ops[:i], append([]tapeOp{{kind: opCPU, us: 0.125}}, m.ops[i:]...)...)
			return m, "arrival time"
		}
	}
	m.streams++
	return m, "stream count"
}

// recordsBefore counts the records among the first i ops.
func (t tape) recordsBefore(i int) int {
	n := 0
	for _, op := range t.ops[:i] {
		if op.kind == opRecord {
			n++
		}
	}
	return n
}

// sameBatch reports the first difference between two devices' last batch:
// every record field, every event's time, the SM-busy integral, both
// clocks, bit for bit.
func sameBatch(got, want *Device, gotEv, wantEv []*Event) error {
	bits := math.Float64bits
	gr, wr := got.Records(), want.Records()
	if len(gr) != len(wr) {
		return fmt.Errorf("%d records, want %d", len(gr), len(wr))
	}
	for i := range gr {
		g, w := *gr[i], *wr[i]
		if g.Name != w.Name || g.Stream != w.Stream || g.Tiles != w.Tiles ||
			g.WaitStream != w.WaitStream || g.WaitTag != w.WaitTag ||
			bits(g.LaunchUs) != bits(w.LaunchUs) || bits(g.StartUs) != bits(w.StartUs) ||
			bits(g.EndUs) != bits(w.EndUs) || bits(g.TileTimeUs) != bits(w.TileTimeUs) ||
			bits(g.SMTimeUs) != bits(w.SMTimeUs) || bits(g.FreeUs) != bits(w.FreeUs) ||
			bits(g.WaitUs) != bits(w.WaitUs) {
			return fmt.Errorf("record %d: %+v, want %+v", i, g, w)
		}
	}
	for i := range gotEv {
		g, w := gotEv[i], wantEv[i]
		if g.Resolved() != w.Resolved() || bits(g.TimeUs()) != bits(w.TimeUs()) || g.stream != w.stream {
			return fmt.Errorf("event %d: %+v, want %+v", i, *g, *w)
		}
	}
	gp, wp := got.Profile(0), want.Profile(0)
	if bits(got.SMBusyUs()) != bits(want.SMBusyUs()) || bits(got.CPUTimeUs()) != bits(want.CPUTimeUs()) ||
		bits(gp.EndUs) != bits(wp.EndUs) || gp.Streams != wp.Streams {
		return fmt.Errorf("SM busy %v, CPU %v, end %v over %d streams; want %v, %v, %v over %d",
			got.SMBusyUs(), got.CPUTimeUs(), gp.EndUs, gp.Streams,
			want.SMBusyUs(), want.CPUTimeUs(), wp.EndUs, wp.Streams)
	}
	return nil
}

// TestReplayMatchesEventLoop issues seeded random tapes two or three times
// in a row on one device and compares every batch with a fresh device fed
// the same calls, which never replays. A batch must replay exactly when it
// repeats the previous one and neither drains inside the batch; a batch
// that differs from the previous one in one place must not.
func TestReplayMatchesEventLoop(t *testing.T) {
	const tapes = 12000
	cfg := testConfig()
	replays, mutations := 0, map[string]int{}
	for seed := 0; seed < tapes; seed++ {
		r := tapeRNG(seed)
		base := randomTape(&r)
		seq := []tape{base, base}
		var place string
		switch seed % 4 {
		case 1:
			seq = append(seq, base)
		case 2:
			var m tape
			m, place = base.mutate(&r, seed/4)
			seq = append(seq, m)
		case 3:
			var m tape
			m, place = base.mutate(&r, seed/4)
			seq = []tape{base, m, m}
		}
		dev := NewDevice(cfg)
		for i, tp := range seq {
			before := dev.BatchesReplayed()
			gotEv := tp.issue(dev)
			fresh := NewDevice(cfg)
			wantEv := tp.issue(fresh)
			if err := sameBatch(dev, fresh, gotEv, wantEv); err != nil {
				t.Fatalf("seed %d batch %d (%s): %v", seed, i, place, err)
			}
			if fresh.BatchesReplayed() != 0 {
				t.Fatalf("seed %d: a fresh device replayed", seed)
			}
			repeat := i > 0 && sameTape(tp, seq[i-1]) && !tp.transfers()
			switch got := dev.BatchesReplayed() - before; {
			case repeat && got != 1:
				t.Fatalf("seed %d batch %d: a repeated batch did not replay", seed, i)
			case !repeat && got != 0:
				t.Fatalf("seed %d batch %d: a batch that differs from the last (%s) replayed", seed, i, place)
			case got == 1:
				replays++
			}
			if i > 0 && !sameTape(tp, seq[i-1]) {
				mutations[place]++
			}
		}
	}
	for _, place := range []string{"tile time", "tag", "wait target", "setup time", "stream count", "extra item", "missing item", "tiles", "arrival time"} {
		if mutations[place] == 0 {
			t.Errorf("no tape differed in its %s", place)
		}
	}
	if replays < tapes {
		t.Errorf("only %d replays over %d tapes", replays, tapes)
	}
}

func sameTape(a, b tape) bool {
	if a.streams != b.streams || len(a.ops) != len(b.ops) {
		return false
	}
	for i := range a.ops {
		if a.ops[i] != b.ops[i] {
			return false
		}
	}
	return true
}

// TestNoiseNeverReplays runs one tape three times on devices whose kernel
// times change from launch to launch or batch to batch — Autoboost jitter,
// straggler and throttle faults — and on one whose cost override changes
// between batches. None replays, and every batch matches a device that
// ran the same batches before it (the noise streams depend on history).
func TestNoiseNeverReplays(t *testing.T) {
	r := tapeRNG(7)
	var tp tape
	for len(tp.ops) < 20 || tp.transfers() {
		tp = randomTape(&r)
	}
	jitter := testConfig()
	jitter.Autoboost, jitter.BoostJitter = true, 0.08
	straggler := testConfig()
	straggler.Faults = FaultConfig{StragglerProb: 0.5, Seed: 3}
	throttle := testConfig()
	throttle.Faults = FaultConfig{ThrottleStartBatch: 2}
	cases := map[string]struct {
		cfg    Config
		before func(d *Device, batch int)
	}{
		"autoboost": {cfg: jitter},
		"straggler": {cfg: straggler},
		"throttle":  {cfg: throttle},
		"override": {cfg: testConfig(), before: func(d *Device, batch int) {
			d.SetCostOverride(CostOverride{ClassTimeFactors: map[string]float64{"gemm": 1 + float64(batch)/4}})
		}},
	}
	for name, c := range cases {
		dev, ref := NewDevice(c.cfg), NewDevice(c.cfg)
		for batch := 0; batch < 3; batch++ {
			for _, d := range []*Device{dev, ref} {
				if c.before != nil {
					c.before(d, batch)
				}
			}
			gotEv := tp.issue(dev)
			if dev.BatchesReplayed() != 0 {
				t.Fatalf("%s: batch %d replayed", name, batch)
			}
			wantEv := tp.issue(ref)
			if err := sameBatch(dev, ref, gotEv, wantEv); err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
		}
	}
}

// TestReplayKeepsPendingSemantics checks what a replayed batch looks like
// before its drain: its events are unresolved, as on a fresh device.
func TestReplayKeepsPendingSemantics(t *testing.T) {
	d := NewDevice(testConfig())
	for batch := 0; batch < 3; batch++ {
		d.Reset()
		d.Launch(0, KernelSpec{Name: "k", Tiles: 8, TileTimeUs: 2})
		e := d.RecordEvent(0)
		if e.Resolved() {
			t.Fatalf("batch %d: event resolved before the drain", batch)
		}
		d.Synchronize()
		if !e.Resolved() || e.TimeUs() != 10 {
			t.Fatalf("batch %d: event at %v after the drain, want 10", batch, e.TimeUs())
		}
	}
	if d.BatchesReplayed() != 2 {
		t.Fatalf("replayed %d batches, want 2", d.BatchesReplayed())
	}
}

// TestDivergedRecordsDropReferenceResults checks that once a batch stops
// repeating the last one, its records hold no timing from it before the
// drain, as fresh records hold none.
func TestDivergedRecordsDropReferenceResults(t *testing.T) {
	d := NewDevice(testConfig())
	for batch, tiles := range []int{8, 8, 9} {
		d.Reset()
		first := d.Launch(0, KernelSpec{Name: "k", Tiles: 8, TileTimeUs: 2})
		d.Launch(0, KernelSpec{Name: "k", Tiles: tiles, TileTimeUs: 2})
		if repeat := batch == 1; !repeat && (first.StartUs != 0 || first.EndUs != 0 || first.SMTimeUs != 0) {
			t.Fatalf("batch %d: a record holds %+v before the drain", batch, *first)
		}
		d.Synchronize()
	}
}

// TestItemAfterDrainSpoilsReference issues an item after a batch's drain
// that overwrites the first one on its stream, then a batch that matches
// the overwritten storage. The batch after a drain is no reference, so it
// runs the event loop and gets the new wait's tag.
func TestItemAfterDrainSpoilsReference(t *testing.T) {
	d := NewDevice(testConfig())
	d.EnsureStreams(2)
	batch := func(tag string) (*Event, *KernelRecord) {
		d.Reset()
		e := d.RecordEvent(0)
		d.WaitEventTag(1, e, tag)
		return e, d.Launch(1, KernelSpec{Name: "k", Tiles: 8, TileTimeUs: 2})
	}
	e, _ := batch("")
	d.Synchronize()
	// Rewind the CPU clock so the stray wait arrives when the first did.
	d.AdvanceCPU(-d.CPUTimeUs())
	d.AdvanceCPU(0.2)
	d.WaitEventTag(1, e, "x")
	_, rec := batch("x")
	d.Synchronize()
	if rec.WaitTag != "x" || d.BatchesReplayed() != 0 {
		t.Fatalf("wait tag %q after %d replays, want %q after none", rec.WaitTag, d.BatchesReplayed(), "x")
	}
}
