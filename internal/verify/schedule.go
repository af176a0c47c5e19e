package verify

import (
	"fmt"
	"strconv"

	"astra/internal/enumerate"
	"astra/internal/memory"
)

// Spec fixes the schedule parameters that live outside the plan's adaptive
// variables; wire.Runner derives it from its RunnerConfig and CommConfig.
type Spec struct {
	// Workers is the data-parallel degree; below 2 the schedule has no
	// gradient exchange.
	Workers int
	// BucketKB is the gradient-bucket cap used when the plan has no
	// comm.bucket_kb variable (0 = one bucket for everything).
	BucketKB int
	// Placement is the comm placement used when the plan has no comm.place
	// variable ("comm" or "main"; empty means "comm").
	Placement string
	// MaxFusion pins groups at their maximal chunk when the plan has no
	// chunk variables (the static-fusion baseline policy).
	MaxFusion bool
}

// OpKind classifies schedule operations.
type OpKind int

// Schedule operation kinds.
const (
	// OpKernel is a compute or communication kernel launch.
	OpKernel OpKind = iota
	// OpCopy is a gather copy staging a fused chunk's operands.
	OpCopy
	// OpRecord records a synchronization event on its stream.
	OpRecord
	// OpWait makes its stream wait for an event recorded elsewhere.
	OpWait
	// OpEnd marks the end of the batch on stream 0.
	OpEnd
)

// RingStepPrefix starts the kernel name of every ring all-reduce step.
const RingStepPrefix = "allreduce."

// Op is one operation in a stream's FIFO program.
type Op struct {
	Kind OpKind
	// Name overrides the label findings show (see Label). Ring steps carry
	// their kernel name here, and the wirer launches them under it.
	Name string
	// Event is the identifier an OpRecord defines and an OpWait awaits.
	Event int
	// Tag says why a wait exists: "epoch", "barrier", "bucket" or
	// "commjoin". The device keeps it on its records for trace analytics.
	Tag string
	// Epoch is the epoch an epoch-end record closes; nil on other ops.
	Epoch *enumerate.Epoch
	// Unit attributes compute kernels and copies to their schedule unit.
	Unit *enumerate.Unit
	// Group, First and Members describe a fusion group's GEMM chunks — the
	// Members GEMMs from Group.GEMMs[First] — and the gather copies staged
	// for fused ones; a ladder's accumulator adds carry Members 0.
	Group          *enumerate.FusionGroup
	First, Members int
	// Bucket indexes the comm bucket a ring step belongs to; -1 otherwise.
	Bucket int
}

// Label names the op in findings.
func (o *Op) Label() string {
	switch {
	case o.Name != "":
		return o.Name
	case o.Kind == OpRecord:
		return fmt.Sprintf("record e%d", o.Event)
	case o.Kind == OpWait:
		return fmt.Sprintf("wait e%d", o.Event)
	case o.Kind == OpEnd:
		return "batch-end"
	case o.Unit == nil:
		return "kernel"
	case o.Unit.Kind == enumerate.UnitSingle:
		return o.Unit.Nodes[0].Op.String()
	case o.Unit.Kind == enumerate.UnitEWChain:
		return fmt.Sprintf("ew-chain[%d]", len(o.Unit.Nodes))
	case o.Kind == OpCopy:
		return "gather " + o.Unit.Group.ID
	case o.Members == 0:
		return "add"
	case o.Members == 1:
		return "gemm"
	}
	return "fused-gemm " + o.Unit.Group.ID
}

// Bucket is one gradient bucket of the schedule.
type Bucket struct {
	Bytes int64
	Grads int
	// Units are the distinct schedule units producing this bucket's
	// gradients, in dispatch order.
	Units []*enumerate.Unit
}

// Pos addresses one op in the schedule.
type Pos struct{ Stream, Index int }

// Schedule is the multi-stream op program for one configuration: the exact
// sequence of kernels, gather copies, and RecordEvent/WaitEvent edges the
// custom-wirer issues for the plan's current variable bindings. The wirer
// executes it and the analyses check it, so both see one program. It
// captures the binding-dependent context (allocation strategy, bucket cap)
// so the analyses check the schedule against what it was built for.
type Schedule struct {
	Streams [][]Op
	// Issue lists every op in the order the wirer issues it to the device.
	// Supers[i] indexes Issue where super-epoch i begins; the final entry
	// starts the batch tail (the comm join and the batch-end marker).
	Issue  []Pos
	Supers []int
	// NumEvents counts the synchronization events recorded.
	NumEvents int
	// Alloc is the allocation strategy active when the schedule was built.
	Alloc *memory.Strategy
	// Buckets, CommStream, Workers and BucketCapBytes describe the gradient
	// exchange (Buckets is empty when the schedule has none; CommStream is
	// -1 when the spec has fewer than 2 workers).
	Buckets        []Bucket
	CommStream     int
	Workers        int
	BucketCapBytes int64
	// FirstOp and LastOp locate each unit's first and last issued op.
	FirstOp, LastOp map[*enumerate.Unit]Pos

	b builder
	// hb is the happens-before analysis's arena (see simulate), kept with
	// its schedule like the builder so re-checking a re-lowered program
	// reuses it.
	hb hbResult
}

// builder is the lowering's scratch state, kept with its schedule so a
// re-lowering reuses it.
type builder struct {
	p    *enumerate.Plan
	spec Spec

	// usedStreams[s] reports stream s has carried compute work this batch.
	// The comm stream never does: super-epoch barriers exist to isolate
	// schedule exploration, and syncing the exchange at every barrier would
	// serialize it behind compute again.
	usedStreams []bool
	// waited and epochStreams are per-epoch flags: stream s has been
	// ordered against the previous epoch, and has carried one of its units.
	waited, epochStreams []bool
	// prevEvents/prevStreams are the previous epoch's end records.
	// barrierEvents/barrierStreams are the latest super-epoch barrier's
	// records: a stream first used after the barrier waits on them, since
	// the barrier's all-pairs synchronization only covered the streams
	// used so far.
	prevEvents, prevStreams       []int
	barrierEvents, barrierStreams []int
	assign                        map[*enumerate.Unit]int
	// atUnit maps a unit to the buckets whose last gradient it produces.
	atUnit map[*enumerate.Unit][]int
	// ready flags the streams a bucket's readiness events already cover.
	ready []bool
	// stepNames caches ring-step kernel names by bucket and step.
	stepNames [][]string
}

// BuildSchedule lowers the plan's current variable bindings under the given
// spec to a fresh schedule.
func BuildSchedule(p *enumerate.Plan, spec Spec) *Schedule {
	s := &Schedule{}
	s.Lower(p, spec)
	return s
}

// Lower re-lowers s for the plan's current bindings, reusing its storage:
// the wirer keeps one program and re-lowers it whenever the binding
// changes, so a lowering allocates only when the program outgrows it.
func (s *Schedule) Lower(p *enumerate.Plan, spec Spec) {
	b := &s.b
	b.p, b.spec = p, spec
	compute := 1
	if p.Opts.StreamAdapt {
		compute = p.Opts.NumStreams
	}
	total := compute
	s.CommStream = -1
	if spec.Workers >= 2 {
		s.CommStream = compute
		total = compute + 1
	}
	if cap(s.Streams) < total {
		s.Streams = make([][]Op, total)
	}
	s.Streams = s.Streams[:total]
	for i := range s.Streams {
		s.Streams[i] = s.Streams[i][:0]
	}
	s.Issue, s.Supers = s.Issue[:0], s.Supers[:0]
	s.NumEvents = 0
	s.Alloc = p.Alloc()
	s.Buckets = s.Buckets[:0]
	s.Workers = spec.Workers
	s.BucketCapBytes = 0
	if s.FirstOp == nil {
		s.FirstOp = map[*enumerate.Unit]Pos{}
		s.LastOp = map[*enumerate.Unit]Pos{}
		b.assign = map[*enumerate.Unit]int{}
		b.atUnit = map[*enumerate.Unit][]int{}
	}
	clear(s.FirstOp)
	clear(s.LastOp)
	clear(b.atUnit)
	b.usedStreams = resetFlags(b.usedStreams, total)
	b.waited = resetFlags(b.waited, total)
	b.epochStreams = resetFlags(b.epochStreams, total)
	b.ready = resetFlags(b.ready, total)
	b.usedStreams[0] = true
	b.prevEvents, b.prevStreams = b.prevEvents[:0], b.prevStreams[:0]
	b.barrierEvents, b.barrierStreams = b.barrierEvents[:0], b.barrierStreams[:0]

	comm := spec.Workers >= 2 && len(p.Grads) > 0
	if comm {
		s.packBuckets()
	}
	for _, se := range p.Supers {
		s.Supers = append(s.Supers, len(s.Issue))
		for _, ep := range se.Epochs {
			s.lowerEpoch(ep)
		}
		s.superEpochBarrier()
	}
	s.Supers = append(s.Supers, len(s.Issue))
	// The batch ends only when the gradient exchange has: the optimizer
	// consumes the reduced gradients, so stream 0 joins on the comm stream.
	if cs := s.commStreamIdx(); comm && cs != 0 {
		s.wait(0, s.record(cs, nil), "commjoin")
	}
	s.emit(0, Op{Kind: OpEnd, Bucket: -1})
}

func resetFlags(f []bool, n int) []bool {
	if cap(f) < n {
		return make([]bool, n)
	}
	f = f[:n]
	clear(f)
	return f
}

func (s *Schedule) emit(stream int, op Op) {
	pos := Pos{Stream: stream, Index: len(s.Streams[stream])}
	s.Streams[stream] = append(s.Streams[stream], op)
	s.Issue = append(s.Issue, pos)
	if op.Unit != nil {
		if _, ok := s.FirstOp[op.Unit]; !ok {
			s.FirstOp[op.Unit] = pos
		}
		s.LastOp[op.Unit] = pos
	}
}

// record emits a record on the stream and returns its event; ep names the
// epoch an epoch-end record closes.
func (s *Schedule) record(stream int, ep *enumerate.Epoch) int {
	ev := s.NumEvents
	s.NumEvents++
	s.emit(stream, Op{Kind: OpRecord, Event: ev, Epoch: ep, Bucket: -1})
	return ev
}

func (s *Schedule) wait(stream, ev int, tag string) {
	s.emit(stream, Op{Kind: OpWait, Event: ev, Tag: tag, Bucket: -1})
}

func (s *Schedule) multiStream() bool {
	o := s.b.p.Opts
	return o.StreamAdapt && o.NumStreams >= 2
}

// commStreamIdx is the stream ring steps run on: the dedicated comm stream
// or stream 0, per placement.
func (s *Schedule) commStreamIdx() int {
	placement := s.b.spec.Placement
	if v := s.b.p.CommPlaceVar; v != nil {
		placement = v.CurrentLabel()
	}
	if placement == "" || placement == "comm" {
		return s.CommStream
	}
	return 0
}

// bucketCapBytes resolves the active bucket byte cap: the comm.bucket_kb
// variable when the plan explores it, the spec's default otherwise. 0
// means unbounded (a single bucket).
func (s *Schedule) bucketCapBytes() int64 {
	v := s.b.p.CommBucketVar
	if v == nil {
		return int64(s.b.spec.BucketKB) * 1024
	}
	kb, err := BucketKB(v.CurrentLabel())
	if err != nil {
		panic(err.Error())
	}
	return int64(kb) * 1024
}

// BucketKB parses a bucket-cap label of enumerate.CommBucketLabels ("256",
// "1024", ..., "all") into the cap in KB; "all" and "" are 0, a single
// bucket holding every gradient.
func BucketKB(label string) (int, error) {
	if label == "" || label == "all" {
		return 0, nil
	}
	kb, err := strconv.Atoi(label)
	if err != nil || kb <= 0 {
		return 0, fmt.Errorf("verify: bad bucket label %q", label)
	}
	return kb, nil
}

// packBuckets packs gradients into buckets in dispatch order: a bucket
// closes when its payload reaches the cap, and fires once the unit
// producing its last gradient has dispatched.
func (s *Schedule) packBuckets() {
	capBytes := s.bucketCapBytes()
	s.BucketCapBytes = capBytes
	var cur *Bucket
	for _, g := range s.b.p.Grads {
		if cur == nil {
			n := len(s.Buckets)
			if n < cap(s.Buckets) {
				s.Buckets = s.Buckets[:n+1]
				s.Buckets[n] = Bucket{Units: s.Buckets[n].Units[:0]}
			} else {
				s.Buckets = append(s.Buckets, Bucket{})
			}
			cur = &s.Buckets[n]
		}
		cur.Bytes += g.Bytes
		cur.Grads++
		if len(cur.Units) == 0 || cur.Units[len(cur.Units)-1] != g.Unit {
			cur.Units = append(cur.Units, g.Unit)
		}
		if capBytes > 0 && cur.Bytes >= capBytes {
			cur = nil
		}
	}
	for i, bk := range s.Buckets {
		last := bk.Units[len(bk.Units)-1]
		s.b.atUnit[last] = append(s.b.atUnit[last], i)
	}
}

// streamAssignment assigns each unit of the epoch a stream: class variables
// say how many of each equivalence class go off stream 0 (§4.5.5), spread
// round-robin over the auxiliary streams — with 2 streams the paper's "k
// to stream 1" split. Classes without a variable (capped, or stream
// adaptation off) stay on stream 0.
func (s *Schedule) streamAssignment(ep *enumerate.Epoch) map[*enumerate.Unit]int {
	out := s.b.assign
	clear(out)
	if !s.multiStream() {
		return out
	}
	aux := s.b.p.Opts.NumStreams - 1
	for _, cls := range ep.Classes {
		k := 0
		if v := s.b.p.StreamVars[cls]; v != nil {
			k, _ = strconv.Atoi(v.CurrentLabel())
		}
		for i, u := range cls.Units {
			if i < k {
				out[u] = 1 + i%aux
			}
		}
	}
	return out
}

// lowerEpoch emits one epoch. Before a stream's first unit of the epoch it
// waits on the previous epoch's end records of the other streams; a stream
// entering the schedule for the first time also waits on the latest
// super-epoch barrier's records, or it would race work from earlier
// super-epochs. With several streams, the epoch ends with a record on each
// stream it used.
func (s *Schedule) lowerEpoch(ep *enumerate.Epoch) {
	b := &s.b
	assign := s.streamAssignment(ep)
	clear(b.waited)
	clear(b.epochStreams)
	for _, u := range ep.Units {
		stream := assign[u]
		if !b.waited[stream] {
			b.waited[stream] = true
			if !b.usedStreams[stream] {
				for i, ev := range b.barrierEvents {
					if b.barrierStreams[i] != stream {
						s.wait(stream, ev, "barrier")
					}
				}
			}
			for i, ev := range b.prevEvents {
				if b.prevStreams[i] != stream {
					s.wait(stream, ev, "epoch")
				}
			}
		}
		b.epochStreams[stream] = true
		b.usedStreams[stream] = true
		s.lowerUnit(u, stream)
		for _, bi := range b.atUnit[u] {
			s.launchBucket(bi, stream)
		}
	}
	if s.multiStream() {
		b.prevEvents, b.prevStreams = b.prevEvents[:0], b.prevStreams[:0]
		for st := 0; st < b.p.Opts.NumStreams; st++ {
			if b.epochStreams[st] {
				b.prevEvents = append(b.prevEvents, s.record(st, ep))
				b.prevStreams = append(b.prevStreams, st)
			}
		}
	}
}

// superEpochBarrier force-synchronizes the used compute streams all-pairs
// (§4.5.3), resetting scheduling history so super-epochs explore
// independently. Streams go in index order: every record and wait advances
// the dispatching CPU's clock, so the order is part of the timeline.
func (s *Schedule) superEpochBarrier() {
	if !s.multiStream() {
		return
	}
	b := &s.b
	b.barrierEvents, b.barrierStreams = b.barrierEvents[:0], b.barrierStreams[:0]
	for st, used := range b.usedStreams {
		if used {
			b.barrierEvents = append(b.barrierEvents, s.record(st, nil))
			b.barrierStreams = append(b.barrierStreams, st)
		}
	}
	for i, st := range b.barrierStreams {
		for j, ev := range b.barrierEvents {
			if j != i { // a stream need not wait on its own event
				s.wait(st, ev, "barrier")
			}
		}
	}
	b.prevEvents, b.prevStreams = b.prevEvents[:0], b.prevStreams[:0]
}

// chunkSize reads the group's chunk variable (or the fixed policy).
func (s *Schedule) chunkSize(grp *enumerate.FusionGroup) int {
	if v := s.b.p.ChunkVars[grp]; v != nil {
		c, err := strconv.Atoi(v.CurrentLabel())
		if err != nil || c < 1 {
			panic(fmt.Sprintf("verify: bad chunk label %q", v.CurrentLabel()))
		}
		return c
	}
	if s.b.spec.MaxFusion {
		return len(grp.GEMMs)
	}
	return 1
}

// lowerUnit emits one unit's kernels. A fusion group runs at its chunk
// granularity: ceil(n/chunk) GEMMs, each fused one preceded by a gather
// copy when the active allocation does not keep its operands contiguous,
// then the residual accumulator adds of a partially-fused ladder.
func (s *Schedule) lowerUnit(u *enumerate.Unit, stream int) {
	grp := u.Group
	if u.Kind != enumerate.UnitGEMMGroup {
		s.emit(stream, Op{Unit: u, Bucket: -1})
		return
	}
	chunk := s.chunkSize(grp)
	contiguous := grp.ReqID != "" && s.Alloc.Contiguous(grp.ReqID)
	n := len(grp.GEMMs)
	numChunks := (n + chunk - 1) / chunk
	for lo := 0; lo < n; lo += chunk {
		op := Op{Unit: u, Group: grp, First: lo, Members: min(chunk, n-lo), Bucket: -1}
		if op.Members > 1 && !contiguous {
			copyOp := op
			copyOp.Kind = OpCopy
			s.emit(stream, copyOp)
		}
		s.emit(stream, op)
	}
	if grp.Kind == enumerate.Ladder {
		for i := 0; i < numChunks-1; i++ {
			s.emit(stream, Op{Unit: u, Group: grp, Bucket: -1})
		}
	}
}

// launchBucket issues one bucket's ring all-reduce: a readiness record on
// every stream that produced one of the bucket's gradients (a producer not
// yet dispatched counts as the current stream), waits carrying them onto
// the comm stream, then 2·(n−1) ring step kernels. Covering every
// producing stream matters: a bucket can span units of one epoch on
// different streams, and the unit that completes it says nothing about the
// other streams' progress (comm.order checks this edge).
func (s *Schedule) launchBucket(idx, stream int) {
	b := &s.b
	cs := s.commStreamIdx()
	clear(b.ready)
	for _, u := range s.Buckets[idx].Units {
		st := stream
		if pos, ok := s.FirstOp[u]; ok {
			st = pos.Stream
		}
		if b.ready[st] {
			continue
		}
		b.ready[st] = true
		ev := s.record(st, nil)
		if cs != st {
			s.wait(cs, ev, "bucket")
		}
	}
	for k := 0; k < 2*(b.spec.Workers-1); k++ {
		s.emit(cs, Op{Kind: OpKernel, Name: b.stepName(idx, k), Bucket: idx})
	}
}

func (b *builder) stepName(bucket, step int) string {
	for len(b.stepNames) <= bucket {
		b.stepNames = append(b.stepNames, nil)
	}
	names := b.stepNames[bucket]
	for len(names) <= step {
		names = append(names, fmt.Sprintf("%sb%d.s%d", RingStepPrefix, bucket, len(names)))
	}
	b.stepNames[bucket] = names
	return names[step]
}
