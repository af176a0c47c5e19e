// Package gpusim is a deterministic discrete-event simulator of a
// P100-class GPU: the hardware substrate this reproduction substitutes for
// the paper's physical Tesla P100 (see DESIGN.md §1).
//
// The simulator models exactly the hardware properties §7 of the paper
// identifies as the ones Astra depends on, and nothing more:
//
//   - Predictable execution: kernel timing is a pure function of the kernel
//     spec and the concurrency it experiences. With Autoboost off the same
//     schedule always takes the same simulated time; with Autoboost on, a
//     seeded clock jitter perturbs every kernel, which is what forces the
//     paper to pin the clock via nvidia-smi.
//   - Streams: FIFO queues that serialize their own kernels but run in
//     parallel with other streams, synchronized only by events.
//   - Lightweight profiling events: cudaEvent-style markers whose resolved
//     timestamps cost nothing on the critical path.
//   - Launch overhead: every kernel costs a fixed CPU-side dispatch time
//     (the 5–10 µs the paper cites), so fusing small kernels pays off.
//
// Execution on the device is wave-quantized: a kernel is a bag of tiles;
// each tile occupies one SM for the kernel's tile time; concurrently
// runnable kernels share free SMs with a fair (least-allocated-first)
// policy. Tile counts below the SM count leave the machine underutilized,
// which is the single mechanism behind every GPU effect the paper exploits
// (fusion wins, multi-stream wins, and the §3.2 fusion anomaly).
package gpusim

import (
	"fmt"
	"math"
	"slices"

	"astra/internal/obs"
	"astra/internal/tensor"
)

// Config describes the simulated device.
type Config struct {
	// NumSMs is the number of streaming multiprocessors (56 on a P100).
	NumSMs int
	// LaunchOverheadUs is the CPU time consumed by one kernel launch.
	LaunchOverheadUs float64
	// KernelSetupUs is the device-side fixed cost before a kernel's tiles
	// may be scheduled.
	KernelSetupUs float64
	// HostTransferLatencyUs and HostTransferBytesPerUs model the PCIe link
	// used by host<->device copies (the XLA embedding pathology).
	HostTransferLatencyUs  float64
	HostTransferBytesPerUs float64
	// Autoboost enables clock jitter: each kernel's tile time is scaled by
	// a factor drawn uniformly from [1-BoostJitter, 1+BoostJitter]. The
	// jitter stream reseeds per batch (Seed mixed with the batch index), so
	// re-measuring the same configuration in a later batch sees different
	// noise — which is what multi-sample profiling averages away — while
	// the same seed still reproduces the same session bit for bit.
	// BoostJitter must lie in [0, 1) with Autoboost on (NewDevice panics
	// otherwise): at 1 or more a factor can reach zero or below, and with
	// it a kernel's duration.
	Autoboost   bool
	BoostJitter float64
	// Seed drives the autoboost jitter stream.
	Seed uint64
	// Faults configures deterministic seeded fault injection (transient
	// straggler kernels and sustained clock-throttle windows); the zero
	// value disables it.
	Faults FaultConfig
}

// FaultConfig injects device-level faults deterministically: the same seed
// and batch sequence reproduce the same faults, so noisy-session tests and
// the drift watchdog are testable run to run.
type FaultConfig struct {
	// StragglerProb is the per-kernel probability of a transient straggler:
	// the kernel's tiles run StragglerFactor (default 3) times slower, the
	// way a single unlucky kernel stalls on a real device.
	StragglerProb   float64
	StragglerFactor float64
	// Seed drives the straggler stream (default Config.Seed). The stream
	// persists across Reset so the straggler pattern differs batch to batch
	// but is identical run to run.
	Seed uint64
	// ThrottleStartBatch (1-based; 0 disables) opens a sustained
	// clock-throttle window: every kernel in batches [start, start+n) runs
	// ThrottleFactor (default 1.3) times slower — the mid-session drift the
	// wired-phase watchdog exists to catch. ThrottleBatches <= 0 keeps the
	// window open for the rest of the session.
	ThrottleStartBatch int
	ThrottleBatches    int
	ThrottleFactor     float64
	// ThrottleClass restricts the throttle window to kernels of exactly
	// this class (obs.KernelClass: "gemm", "ew", "copy", "allreduce",
	// "other" — the same classing the analyzer's blame uses). Empty
	// throttles every kernel. This is the perturbation the analyzer's diff
	// mode is validated against: a class-targeted fault must show up as
	// blame on exactly that class — which is why the match is by class,
	// not name prefix: a prefix like "gemm" would also catch an
	// unrelated "gemmish_*" kernel and smear the attribution.
	ThrottleClass string
}

// Enabled reports whether any fault injection is configured.
func (f FaultConfig) Enabled() bool {
	return f.StragglerProb > 0 || f.ThrottleStartBatch > 0
}

// P100 returns the configuration used throughout the evaluation, standing
// in for the paper's Tesla P100 testbed.
func P100() Config {
	return Config{
		NumSMs:                 56,
		LaunchOverheadUs:       7,
		KernelSetupUs:          1.5,
		HostTransferLatencyUs:  12,
		HostTransferBytesPerUs: 11000, // ~11 GB/s effective PCIe gen3 x16
		BoostJitter:            0.08,
		Seed:                   1,
	}
}

// KernelSpec describes the device-side cost of one kernel launch. Cost
// models live in package kernels; the simulator only executes specs.
type KernelSpec struct {
	Name       string
	Tiles      int
	TileTimeUs float64
	SetupUs    float64 // 0 means use Config.KernelSetupUs
}

// Event is a cudaEvent-style marker. Its timestamp resolves when the
// stream it was recorded on drains past the record point.
type Event struct {
	id       int
	stream   int // stream the event was recorded on
	resolved bool
	timeUs   float64
}

// Resolved reports whether the event's timestamp is known (i.e. the device
// has been synchronized past it).
func (e *Event) Resolved() bool { return e.resolved }

// TimeUs returns the resolved GPU timestamp; it panics if the event has not
// been synchronized, mirroring cudaEventElapsedTime's error on a pending
// event.
func (e *Event) TimeUs() float64 {
	if !e.resolved {
		panic("gpusim: reading unresolved event")
	}
	return e.timeUs
}

// Elapsed returns the elapsed time in µs between two resolved events.
func Elapsed(start, end *Event) float64 { return end.TimeUs() - start.TimeUs() }

// KernelRecord is the simulator's account of one executed kernel, used by
// tests, by the profiler, and by the trace analyzer to attribute time.
//
// StartUs is always max(LaunchUs, FreeUs, WaitUs): a kernel starts the
// moment its launch arrives, its stream drains, and every awaited event has
// resolved — whichever is last. Recording all three operands (exact float
// copies of the simulated clock, never recomputed) lets the analyzer
// identify the binding constraint of every kernel start with zero
// tolerance, which is what makes exact critical-path reconstruction
// possible.
type KernelRecord struct {
	Name       string
	Stream     int
	LaunchUs   float64 // CPU time at launch
	StartUs    float64 // device time the kernel began (setup start)
	EndUs      float64 // device time the last tile finished
	Tiles      int
	TileTimeUs float64
	SMTimeUs   float64 // integral of SMs occupied over time

	// FreeUs is the stream's drain time when the kernel started (the
	// previous kernel's EndUs, 0 for the first on the stream); WaitUs the
	// stream's resolved event-wait horizon, with WaitStream the stream the
	// horizon-setting event was recorded on (-1 when no wait applied) and
	// WaitTag the dispatcher-supplied label of that wait (WaitEventTag).
	FreeUs     float64
	WaitUs     float64
	WaitStream int
	WaitTag    string
}

// DurationUs returns the kernel's device-side duration.
func (k *KernelRecord) DurationUs() float64 { return k.EndUs - k.StartUs }

type itemKind int

const (
	itemKernel itemKind = iota
	itemRecord
	itemWait
)

type item struct {
	kind      itemKind
	arrivalUs float64 // CPU launch time
	kern      *kernel
	event     *Event // record target or wait source
	tag       string // dispatcher label of a wait (WaitEventTag)
}

type kernel struct {
	rec        *KernelRecord
	setupUs    float64
	readyAt    float64 // device time tiles become schedulable
	started    bool
	seq        int // launch order within the batch; total SM-allocation tie-break
	unassigned int // tiles not yet given to an SM group
	inFlight   int // tiles currently executing
	assigned   int // SMs currently held
	jitter     float64
}

type stream struct {
	// queue[head:] is the pending FIFO. Consuming advances head instead of
	// re-slicing from the front, so the backing array survives the batch and
	// the next batch enqueues into already-warm capacity.
	queue     []item
	head      int
	busy      *kernel // FIFO: at most one kernel in flight per stream
	lastDone  float64 // device time the last kernel on this stream finished
	waitUntil float64 // earliest device time the next item may start
	// waitStream/waitTag carry the provenance of the current waitUntil: the
	// stream the horizon-setting event was recorded on and the dispatcher's
	// label for the wait. Copied into each starting kernel's record.
	waitStream int
	waitTag    string
}

func (s *stream) pending() int { return len(s.queue) - s.head }

func (s *stream) peek() item { return s.queue[s.head] }

func (s *stream) advance() {
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
}

func (s *stream) push(it item) { s.queue = append(s.queue, it) }

// Device is the simulated GPU plus the dispatching CPU's timeline.
// CostOverride scales kernel execution time by class — the hook the what-if
// checker uses to re-simulate a "class got N× faster" scenario for ground
// truth. Factors multiply the kernel's tile time (0.5 = twice as fast);
// classes absent from the map, and non-positive factors, are untouched.
// Unlike FaultConfig the override is deterministic, batch-independent, and
// applied to every matching kernel.
type CostOverride struct {
	ClassTimeFactors map[string]float64
}

type Device struct {
	cfg       Config
	override  CostOverride
	cpuUs     float64
	simUs     float64
	freeSMs   int
	streams   []*stream
	running   []*kernel
	batches   batchHeap
	records   []*KernelRecord
	rng       *tensor.RNG
	faultRNG  *tensor.RNG // persists across Reset; drives straggler injection
	batch     int         // 1-based batch counter, advanced by Reset
	eventSeq  int
	launchSeq int     // kernels launched this batch; orders SM allocation ties
	smBusyUs  float64 // integral of busy SMs over device time

	// Free-lists for the per-batch hot-path objects. Pointers handed out
	// (records, events) stay valid until the next Reset, which recycles them
	// for the following batch — the simulator's steady state allocates
	// nothing per launch. Pools hold pointers (not a value arena) so growth
	// via append never invalidates an outstanding pointer.
	recPool   []*KernelRecord
	recUsed   int
	kernPool  []*kernel
	kernUsed  int
	eventPool []*Event
	eventUsed int
	needy     []*kernel // scratch for allocateSMs
	poolReuse int64     // objects served from a free-list (telemetry)
	poolAlloc int64     // objects newly allocated (telemetry)
}

// newRecord hands out a KernelRecord from the device free list.
//
//astra:hotpath
func (d *Device) newRecord() *KernelRecord {
	if d.recUsed < len(d.recPool) {
		r := d.recPool[d.recUsed]
		d.recUsed++
		d.poolReuse++
		*r = KernelRecord{}
		return r
	}
	// lint:ok escape pool growth, amortized to zero across Reset/reuse
	r := &KernelRecord{}
	d.recPool = append(d.recPool, r)
	d.recUsed++
	d.poolAlloc++
	return r
}

// newKernel hands out a kernel from the device free list.
//
//astra:hotpath
func (d *Device) newKernel() *kernel {
	if d.kernUsed < len(d.kernPool) {
		k := d.kernPool[d.kernUsed]
		d.kernUsed++
		d.poolReuse++
		*k = kernel{}
		return k
	}
	// lint:ok escape pool growth, amortized to zero across Reset/reuse
	k := &kernel{}
	d.kernPool = append(d.kernPool, k)
	d.kernUsed++
	d.poolAlloc++
	return k
}

// newEvent hands out an Event from the device free list.
//
//astra:hotpath
func (d *Device) newEvent() *Event {
	if d.eventUsed < len(d.eventPool) {
		e := d.eventPool[d.eventUsed]
		d.eventUsed++
		d.poolReuse++
		*e = Event{}
		return e
	}
	// lint:ok escape pool growth, amortized to zero across Reset/reuse
	e := &Event{}
	d.eventPool = append(d.eventPool, e)
	d.eventUsed++
	d.poolAlloc++
	return e
}

// PoolCounters reports the free-list telemetry: objects served from a pool
// versus freshly allocated since the device was created.
func (d *Device) PoolCounters() (reused, allocated int64) {
	return d.poolReuse, d.poolAlloc
}

// NewDevice creates a device with one stream.
func NewDevice(cfg Config) *Device {
	if cfg.NumSMs <= 0 {
		panic("gpusim: NumSMs must be positive")
	}
	if cfg.Autoboost && !(cfg.BoostJitter >= 0 && cfg.BoostJitter < 1) {
		panic(fmt.Sprintf("gpusim: BoostJitter %v out of range (valid: [0, 1) with Autoboost on)", cfg.BoostJitter))
	}
	fseed := cfg.Faults.Seed
	if fseed == 0 {
		fseed = cfg.Seed
	}
	d := &Device{
		cfg: cfg, freeSMs: cfg.NumSMs,
		rng:      tensor.NewRNG(cfg.Seed),
		faultRNG: tensor.NewRNG(fseed),
	}
	d.streams = []*stream{{waitStream: -1}}
	return d
}

// Batch returns the 1-based index of the current mini-batch (0 before the
// first Reset). The runner resets the device once per batch, so this is the
// session's batch counter — the clock fault windows are expressed in.
func (d *Device) Batch() int { return d.batch }

// Throttled reports whether the current batch falls inside a configured
// clock-throttle window.
func (d *Device) Throttled() bool {
	f := d.cfg.Faults
	if f.ThrottleStartBatch <= 0 || d.batch < f.ThrottleStartBatch {
		return false
	}
	return f.ThrottleBatches <= 0 || d.batch < f.ThrottleStartBatch+f.ThrottleBatches
}

// SetCostOverride installs (or, with a zero value, clears) a per-class
// execution-time override. It applies from the next Launch onward.
func (d *Device) SetCostOverride(o CostOverride) { d.override = o }

// EnsureStreams grows the stream set to at least n streams.
func (d *Device) EnsureStreams(n int) {
	for len(d.streams) < n {
		d.streams = append(d.streams, &stream{waitStream: -1})
	}
}

// NumStreams returns the current stream count.
func (d *Device) NumStreams() int { return len(d.streams) }

// CPUTimeUs returns the dispatching CPU's clock.
func (d *Device) CPUTimeUs() float64 { return d.cpuUs }

// AdvanceCPU adds host-side work (framework overhead, Python dispatch,
// optimizer math) to the CPU timeline.
func (d *Device) AdvanceCPU(us float64) { d.cpuUs += us }

// Records returns every kernel executed since the last Reset, in launch
// order. The slice and the records it points to are recycled by the next
// Reset; callers must copy anything they keep across batches.
func (d *Device) Records() []*KernelRecord { return d.records }

// SMBusyUs returns the integral of occupied SMs over device time, the basis
// of the utilization statistics in reports.
func (d *Device) SMBusyUs() float64 { return d.smBusyUs }

// Reset clears all queues, clocks and records and advances the batch
// counter; streams are kept. The jitter stream reseeds from (Seed, batch)
// so each batch draws fresh — but run-to-run reproducible — noise; the
// fault stream deliberately survives Reset (see FaultConfig.Seed).
//
// Reset also recycles the previous batch's kernel records and events into
// the device free-lists: pointers obtained from Launch/RecordEvent/Records
// are valid until the next Reset and must not be retained across it.
func (d *Device) Reset() {
	d.cpuUs, d.simUs = 0, 0
	d.freeSMs = d.cfg.NumSMs
	d.running = d.running[:0]
	d.batches = d.batches[:0]
	d.records = d.records[:0]
	d.recUsed, d.kernUsed, d.eventUsed = 0, 0, 0
	d.launchSeq = 0
	d.smBusyUs = 0
	d.batch++
	d.rng.Reseed(d.cfg.Seed + uint64(d.batch)*0x9E3779B97F4A7C15)
	for _, s := range d.streams {
		s.queue = s.queue[:0]
		s.head = 0
		s.busy = nil
		s.lastDone = 0
		s.waitUntil = 0
		s.waitStream = -1
		s.waitTag = ""
	}
}

// Launch enqueues a kernel on a stream. It consumes the configured launch
// overhead on the CPU timeline and returns asynchronously, like
// cudaLaunchKernel.
//
//astra:hotpath
func (d *Device) Launch(streamID int, spec KernelSpec) *KernelRecord {
	if spec.Tiles <= 0 || spec.TileTimeUs <= 0 {
		panic(fmt.Sprintf("gpusim: bad kernel spec %+v", spec))
	}
	s := d.stream(streamID)
	d.cpuUs += d.cfg.LaunchOverheadUs
	setup := spec.SetupUs
	if setup == 0 {
		setup = d.cfg.KernelSetupUs
	}
	jitter := 1.0
	if d.cfg.Autoboost {
		jitter = 1 + d.cfg.BoostJitter*(2*d.rng.Float64()-1)
	}
	if f := d.cfg.Faults; f.StragglerProb > 0 && d.faultRNG.Float64() < f.StragglerProb {
		factor := f.StragglerFactor
		if factor <= 1 {
			factor = 3
		}
		jitter *= factor
	}
	if d.Throttled() && (d.cfg.Faults.ThrottleClass == "" ||
		obs.KernelClass(spec.Name) == d.cfg.Faults.ThrottleClass) {
		factor := d.cfg.Faults.ThrottleFactor
		if factor <= 1 {
			factor = 1.3
		}
		jitter *= factor
	}
	if len(d.override.ClassTimeFactors) > 0 {
		if f, ok := d.override.ClassTimeFactors[obs.KernelClass(spec.Name)]; ok && f > 0 {
			jitter *= f
		}
	}
	// lint:ok escape inlined newRecord: pool growth, amortized to zero across Reset/reuse
	rec := d.newRecord()
	rec.Name = spec.Name
	rec.Stream = streamID
	rec.LaunchUs = d.cpuUs
	rec.Tiles = spec.Tiles
	rec.TileTimeUs = spec.TileTimeUs * jitter
	d.records = append(d.records, rec)
	// lint:ok escape inlined newKernel: pool growth, amortized to zero across Reset/reuse
	k := d.newKernel()
	k.rec = rec
	k.setupUs = setup
	k.seq = d.launchSeq
	d.launchSeq++
	k.unassigned = spec.Tiles
	k.jitter = jitter
	s.push(item{kind: itemKernel, arrivalUs: d.cpuUs, kern: k})
	return rec
}

// RecordEvent places a cudaEvent on the stream; it resolves when the stream
// drains to it. Recording costs a negligible, fixed CPU time (0.2 µs),
// which is what makes always-on profiling affordable (§5.2).
//
//astra:hotpath
func (d *Device) RecordEvent(streamID int) *Event {
	s := d.stream(streamID)
	d.cpuUs += 0.2
	d.eventSeq++
	// lint:ok escape inlined newEvent: pool growth, amortized to zero across Reset/reuse
	e := d.newEvent()
	e.id = d.eventSeq
	e.stream = streamID
	s.push(item{kind: itemRecord, arrivalUs: d.cpuUs, event: e})
	return e
}

// WaitEvent makes subsequent work on the stream wait until the event
// resolves (cudaStreamWaitEvent).
func (d *Device) WaitEvent(streamID int, e *Event) {
	d.WaitEventTag(streamID, e, "")
}

// WaitEventTag is WaitEvent with a dispatcher-supplied label describing why
// the wait exists ("epoch", "barrier", "bucket", ...). The tag is copied
// onto the KernelRecord of any kernel whose start is held back by this wait,
// so trace analysis can classify the resulting idle gap without re-deriving
// dispatcher intent from kernel names.
//
//astra:hotpath
func (d *Device) WaitEventTag(streamID int, e *Event, tag string) {
	s := d.stream(streamID)
	d.cpuUs += 0.2
	s.push(item{kind: itemWait, arrivalUs: d.cpuUs, event: e, tag: tag})
}

// Synchronize drains all streams (cudaDeviceSynchronize): the simulation
// runs to completion and the CPU clock advances to the device completion
// time if the device finished later.
func (d *Device) Synchronize() {
	d.drain()
	if d.simUs > d.cpuUs {
		d.cpuUs = d.simUs
	}
}

// HostTransfer models a synchronous PCIe copy of n bytes. The CPU blocks
// for the link latency plus serialization time after the stream drains —
// the cost structure behind XLA's embedding pathology (§6.6).
func (d *Device) HostTransfer(streamID int, bytes int64) {
	d.Synchronize()
	dur := d.cfg.HostTransferLatencyUs
	if d.cfg.HostTransferBytesPerUs > 0 {
		dur += float64(bytes) / d.cfg.HostTransferBytesPerUs
	}
	d.cpuUs += dur
	if d.simUs < d.cpuUs {
		d.simUs = d.cpuUs
	}
}

func (d *Device) stream(id int) *stream {
	if id < 0 || id >= len(d.streams) {
		panic(fmt.Sprintf("gpusim: stream %d of %d", id, len(d.streams)))
	}
	return d.streams[id]
}

// ---- discrete-event engine ----

type tileBatch struct {
	doneUs float64
	kern   *kernel
	sms    int
}

type batchHeap []tileBatch

func (h batchHeap) Len() int           { return len(h) }
func (h batchHeap) Less(i, j int) bool { return h[i].doneUs < h[j].doneUs }
func (h batchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *batchHeap) push(b tileBatch) {
	*h = append(*h, b)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].doneUs <= (*h)[i].doneUs {
			break
		}
		h.Swap(i, p)
		i = p
	}
}
func (h *batchHeap) pop() tileBatch {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && (*h)[l].doneUs < (*h)[small].doneUs {
			small = l
		}
		if r < len(*h) && (*h)[r].doneUs < (*h)[small].doneUs {
			small = r
		}
		if small == i {
			break
		}
		h.Swap(i, small)
		i = small
	}
	return top
}

// drain runs the event loop until every queue is empty and every kernel has
// retired.
//
//astra:hotpath
func (d *Device) drain() {
	for {
		d.startEligibleWork()
		d.allocateSMs()
		next := d.nextEventTime()
		if math.IsInf(next, 1) {
			if d.pendingWork() {
				panic("gpusim: deadlock — pending work with no runnable event (likely a wait on an event recorded later on the same stream)")
			}
			return
		}
		if next > d.simUs {
			d.simUs = next
		}
		d.completeBatchesAt(d.simUs)
	}
}

// startEligibleWork pops stream-queue heads that can make progress at the
// current simulated time.
//
//astra:hotpath
func (d *Device) startEligibleWork() {
	for progress := true; progress; {
		progress = false
		for _, s := range d.streams {
			for s.pending() > 0 {
				it := s.peek()
				// Stream FIFO: nothing passes a busy kernel.
				if s.busy != nil {
					break
				}
				eligible := math.Max(it.arrivalUs, math.Max(s.lastDone, s.waitUntil))
				switch it.kind {
				case itemRecord:
					// An event resolves as soon as the stream has drained
					// to it; that can be in the simulated past.
					it.event.resolved = true
					it.event.timeUs = eligible
					s.advance()
					progress = true
					continue
				case itemWait:
					if !it.event.resolved {
						// Blocked until some other stream resolves it.
						break
					}
					if it.event.timeUs > s.waitUntil {
						s.waitUntil = it.event.timeUs
						s.waitStream = it.event.stream
						s.waitTag = it.tag
					}
					s.advance()
					progress = true
					continue
				case itemKernel:
					if eligible > d.simUs {
						break
					}
					k := it.kern
					k.started = true
					k.rec.StartUs = eligible
					// Record the three operands of the start-time max so the
					// analyzer can reconstruct which constraint bound this
					// kernel (exact float copies: zero-tolerance matching).
					k.rec.FreeUs = s.lastDone
					k.rec.WaitUs = s.waitUntil
					k.rec.WaitStream = s.waitStream
					k.rec.WaitTag = s.waitTag
					k.readyAt = eligible + k.setupUs
					s.busy = k
					d.running = append(d.running, k)
					s.advance()
					progress = true
					continue
				}
				break
			}
		}
	}
}

// allocateSMs distributes free SMs among running kernels whose setup is
// complete, least-allocated-first, so concurrent kernels share the machine
// fairly the way concurrent thread-block grids do.
//
//astra:hotpath
func (d *Device) allocateSMs() {
	for d.freeSMs > 0 {
		needy := d.needyKernels()
		if len(needy) == 0 {
			return
		}
		// slices.SortFunc does not allocate (sort.Slice boxes its closure,
		// which was the last per-launch heap allocation on this path). The
		// seq tie-break makes the order total, so the result is identical
		// for any sorting algorithm.
		slices.SortFunc(needy, func(a, b *kernel) int {
			if a.assigned != b.assigned {
				return a.assigned - b.assigned
			}
			if a.rec.LaunchUs != b.rec.LaunchUs {
				if a.rec.LaunchUs < b.rec.LaunchUs {
					return -1
				}
				return 1
			}
			return a.seq - b.seq
		})
		k := needy[0]
		share := d.freeSMs / len(needy)
		if share < 1 {
			share = 1
		}
		g := share
		if g > k.unassigned {
			g = k.unassigned
		}
		k.unassigned -= g
		k.inFlight += g
		k.assigned += g
		d.freeSMs -= g
		d.batches.push(tileBatch{doneUs: d.simUs + k.rec.TileTimeUs, kern: k, sms: g})
	}
}

// needyKernels rebuilds the scratch list of kernels waiting for SMs.
//
//astra:hotpath
func (d *Device) needyKernels() []*kernel {
	out := d.needy[:0]
	for _, k := range d.running {
		if k.unassigned > 0 && k.readyAt <= d.simUs {
			out = append(out, k)
		}
	}
	d.needy = out
	return out
}

// nextEventTime returns the earliest time at which the simulation state can
// change: a tile batch completes, a kernel's setup finishes, or a stream
// head becomes eligible.
//
//astra:hotpath
func (d *Device) nextEventTime() float64 {
	next := math.Inf(1)
	if len(d.batches) > 0 {
		next = d.batches[0].doneUs
	}
	for _, k := range d.running {
		if k.unassigned > 0 && k.readyAt > d.simUs && k.readyAt < next && d.freeSMs > 0 {
			next = k.readyAt
		}
	}
	for _, s := range d.streams {
		if s.pending() == 0 || s.busy != nil {
			continue
		}
		it := s.peek()
		if it.kind == itemWait && !it.event.resolved {
			continue
		}
		eligible := math.Max(it.arrivalUs, math.Max(s.lastDone, s.waitUntil))
		if eligible > d.simUs && eligible < next {
			next = eligible
		}
	}
	return next
}

// completeBatchesAt retires every tile batch due at or before t.
//
//astra:hotpath
func (d *Device) completeBatchesAt(t float64) {
	for len(d.batches) > 0 && d.batches[0].doneUs <= t {
		b := d.batches.pop()
		k := b.kern
		k.inFlight -= b.sms
		k.assigned -= b.sms
		d.freeSMs += b.sms
		d.smBusyUs += float64(b.sms) * k.rec.TileTimeUs
		if k.unassigned == 0 && k.inFlight == 0 {
			k.rec.EndUs = b.doneUs
			k.rec.SMTimeUs = float64(k.rec.Tiles) * k.rec.TileTimeUs
			d.retire(k)
		}
	}
}

// retire removes a finished kernel from the running set and frees its stream.
//
//astra:hotpath
func (d *Device) retire(k *kernel) {
	for i, r := range d.running {
		if r == k {
			d.running = append(d.running[:i], d.running[i+1:]...)
			break
		}
	}
	for _, s := range d.streams {
		if s.busy == k {
			s.busy = nil
			if k.rec.EndUs > s.lastDone {
				s.lastDone = k.rec.EndUs
			}
		}
	}
}

func (d *Device) pendingWork() bool {
	if len(d.running) > 0 || len(d.batches) > 0 {
		return true
	}
	for _, s := range d.streams {
		if s.pending() > 0 {
			return true
		}
	}
	return false
}
