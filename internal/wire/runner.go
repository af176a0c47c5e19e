// Package wire implements Astra's runtime half: the custom-wirer (§4.7).
// For the current binding of every adaptive variable it dispatches one
// mini-batch onto the simulated GPU — fused GEMM chunks, gather copies for
// non-contiguous operands, multi-stream assignment with event
// synchronization, super-epoch barriers — while wrapping every region of
// interest in cudaEvent pairs for fine-grained profiling (§5.2). The
// schedule itself is the op program verify.BuildSchedule lowers the binding
// to; the runner caches it with its launch list — the kernel spec of every
// op, resolved once per program — and replays both every batch. After the
// batch it extracts one metric per adaptive variable and hands them to the
// explorer.
package wire

import (
	"fmt"
	"math"

	"astra/internal/adapt"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/graph"
	"astra/internal/kernels"
	"astra/internal/obs"
	"astra/internal/verify"
)

// RunnerConfig tunes the dispatcher.
type RunnerConfig struct {
	// PerOpCPUUs is the dispatcher's own CPU cost per kernel launch on top
	// of the driver launch overhead. Astra interposes below the framework
	// (§5.1), so this is small compared to an eager framework's per-op
	// cost.
	PerOpCPUUs float64
	// MaxFusion pins every fusion group at its maximal chunk when the
	// plan has no chunk variables — the static-fusion policy used to model
	// XLA (package baselines).
	MaxFusion bool
	// EmbeddingHostTransfer forces a host round-trip per embedding lookup
	// (XLA's embedding pathology, §6.6).
	EmbeddingHostTransfer bool
	// Profile enables the cudaEvent instrumentation. Astra keeps it
	// always on (overhead <0.5%, §6.4); baselines run without it.
	Profile bool
	// Comm configures event-level data-parallel gradient exchange; the
	// zero value disables it (single-worker sessions).
	Comm CommConfig
}

// BatchResult reports one dispatched mini-batch.
type BatchResult struct {
	// Metrics maps adaptive-variable IDs to their profiled values (µs).
	// The map belongs to the runner and is valid until its next RunBatch,
	// which clears and refills it: a caller that keeps it longer copies
	// it.
	Metrics map[string]float64
	// TotalUs is the wall-clock time of the mini-batch (CPU timeline,
	// which includes waiting for the device at the end).
	TotalUs float64
	// Kernels is the number of kernels launched.
	Kernels int
	// Events is the number of cudaEvents recorded or waited on,
	// including cross-stream synchronization (each costs 0.2 µs of CPU).
	Events int
	// ProfEvents counts the events recorded purely for profiling.
	ProfEvents int
	// CommKernels counts ring all-reduce step kernels issued, and CommUs
	// sums their device time (link-busy time). CommSpanUs is the interval
	// from the first comm kernel's start to the last one's end — with a
	// single bucket on the main stream this is the serialized exchange
	// time the analytic RingAllReduceUs formula models.
	CommKernels int
	CommUs      float64
	CommSpanUs  float64
	// WorkerUs lists every worker's batch time when the session steps a
	// multi-worker cluster; TotalUs is then their max. The slice belongs
	// to the session and is valid until its next Step: a caller that keeps
	// it longer copies it.
	WorkerUs []float64
	// Env holds the computed values when value evaluation was requested.
	Env graph.Env
}

// ProfilingOverheadUs returns the CPU time spent on profiling-only event
// bookkeeping (0.2 µs per event, matching gpusim's accounting). Events that
// exist to synchronize streams are schedule cost, not profiling cost.
func (r *BatchResult) ProfilingOverheadUs() float64 { return 0.2 * float64(r.ProfEvents) }

// Runner executes mini-batches for a plan. It does not decide the
// schedule: verify lowers the plan's binding to an op program, and the
// runner issues that program's ops to the device in order.
type Runner struct {
	Plan *enumerate.Plan
	Dev  *gpusim.Device
	Cfg  RunnerConfig

	// obs, when attached, receives per-unit dispatch spans on the CPU
	// timeline and the per-batch wirer span; traceOffsetUs places each
	// batch's device-relative clock onto the session-wide clock.
	// traceDetail gates the per-unit spans (the session bounds how many
	// batches get kernel-level detail so long traces stay loadable).
	obs           *obs.Telemetry
	traceOffsetUs float64
	traceDetail   bool

	// prog is the cached op program, lowered under spec for the choice
	// vector in choices (one entry per variable of vars). lowerings counts
	// the lowerings so far, the first one at construction included.
	prog      verify.Schedule
	spec      verify.Spec
	vars      []*adapt.Var
	choices   []int
	lowerings int

	// launches is prog's launch list: the kernel spec of every op that
	// launches one, in issue order, resolved when the program is first
	// issued (resolved is the lowering it belongs to). spare is the list
	// before it, kept for its capacity. units records, per unit in issue
	// order, where its specs sit in launches and what they were resolved
	// for, so a re-resolution reuses the specs of units whose ops did not
	// change.
	launches, spare []gpusim.KernelSpec
	units           []unitLaunches
	resolved        int

	// lead is rank 0's runner when this one is a session peer. A peer
	// lowers and resolves nothing: it issues lead's program and launch
	// list, so every rank runs the program the session verified.
	lead *Runner

	// st is the reusable per-batch execution state.
	st execState
	// metrics is every batch's BatchResult.Metrics, cleared and refilled
	// by each RunBatch; successive batches measure much the same
	// variables, so once it has grown a batch adds no storage.
	metrics map[string]float64
}

// Instrument attaches a telemetry bundle; subsequent batches emit dispatch
// spans onto its tracer.
func (r *Runner) Instrument(tel *obs.Telemetry) {
	r.obs = tel
	tel.Trace.SetProcessName(obs.PIDDispatch, "cpu dispatch")
	tel.Trace.SetThreadName(obs.PIDDispatch, obs.TIDBatches, "session / trials")
	tel.Trace.SetThreadName(obs.PIDDispatch, obs.TIDWirer, "wirer dispatch")
}

// SetTraceOffset sets the session-clock offset applied to the next batch's
// spans (the session's clock at the batch's start) and whether the batch
// gets per-unit dispatch detail.
func (r *Runner) SetTraceOffset(us float64, detail bool) {
	r.traceOffsetUs = us
	r.traceDetail = detail
}

// NewRunner builds a runner, lowers the plan's current binding, and sizes
// the device's stream set to the program's. With comm enabled the program
// has one stream beyond the compute streams for communication kernels.
func NewRunner(plan *enumerate.Plan, dev *gpusim.Device, cfg RunnerConfig) *Runner {
	r := &Runner{Plan: plan, Dev: dev, Cfg: cfg, spec: verify.Spec{MaxFusion: cfg.MaxFusion}}
	if cfg.Comm.Enabled() {
		r.spec.Workers = cfg.Comm.Workers
		r.spec.BucketKB = cfg.Comm.DefaultBucketKB
		r.spec.Placement = cfg.Comm.DefaultPlacement
	}
	if plan.Tree != nil {
		r.vars = plan.Tree.Vars()
		r.choices = make([]int, len(r.vars))
	}
	r.lower()
	dev.EnsureStreams(len(r.prog.Streams))
	return r
}

// newPeer builds the runner of another rank of lead's session on its own
// device. It shares lead's program and launch list instead of lowering a
// copy of its own.
func newPeer(lead *Runner, dev *gpusim.Device, cfg RunnerConfig) *Runner {
	dev.EnsureStreams(len(lead.prog.Streams))
	return &Runner{Plan: lead.Plan, Dev: dev, Cfg: cfg, lead: lead}
}

// Program returns the op program the next batch issues: the cached one
// while the plan's choice vector is unchanged, a fresh lowering otherwise.
// It stays valid until the binding changes. A peer's program is its lead's.
func (r *Runner) Program() *verify.Schedule {
	if r.lead != nil {
		return r.lead.Program()
	}
	for i, v := range r.vars {
		if v.Current() != r.choices[i] {
			r.lower()
			break
		}
	}
	return &r.prog
}

func (r *Runner) lower() {
	for i, v := range r.vars {
		r.choices[i] = v.Current()
	}
	r.prog.Lower(r.Plan, r.spec)
	r.lowerings++
}

// issued returns the program the next batch issues and its launch list,
// resolving the list the first time a lowering is issued.
func (r *Runner) issued() (*verify.Schedule, []gpusim.KernelSpec) {
	if r.lead != nil {
		return r.lead.issued()
	}
	prog := r.Program()
	if r.resolved != r.lowerings {
		r.resolve()
		r.resolved = r.lowerings
	}
	return prog, r.launches
}

// unitLaunches locates one unit's specs in the launch list and keys them
// by what they were resolved from.
type unitLaunches struct {
	u   *enumerate.Unit
	off int
	key unitKey
}

// unitKey is a unit's kernel library, op count and first op's member
// count. In a fusion group the member count is the chunk size, and with
// it the op count says whether gathers are staged, so an equal key means
// an equal op run.
type unitKey struct {
	lib          kernels.Library
	ops, members int
}

// resolve builds the launch list of the cached program into the spare
// list. Lowering keeps units in the same issue order under every binding,
// so a unit found at its old place with its old key copies its specs from
// the previous list; any other unit, and every ring step, is resolved
// afresh.
func (r *Runner) resolve() {
	prog := &r.prog
	n := 0
	for _, pos := range prog.Issue {
		if op := at(prog, pos); op.Unit != nil || op.Kind == verify.OpKernel {
			n++
		}
	}
	out := r.spare[:0]
	if cap(out) < n {
		out = make([]gpusim.KernelSpec, 0, n)
	}
	if len(r.units) != len(prog.FirstOp) {
		r.units = make([]unitLaunches, len(prog.FirstOp))
	}
	k := 0
	for i := 0; i < len(prog.Issue); i++ {
		op := at(prog, prog.Issue[i])
		switch {
		case op.Unit != nil:
			u := op.Unit
			j := i + 1
			for j < len(prog.Issue) && at(prog, prog.Issue[j]).Unit == u {
				j++
			}
			key := unitKey{lib: r.libFor(u), ops: j - i, members: op.Members}
			if rec := r.units[k]; rec.u == u && rec.key == key {
				out = append(out, r.launches[rec.off:rec.off+key.ops]...)
			} else {
				for _, pos := range prog.Issue[i:j] {
					out = append(out, unitKernel(at(prog, pos), key.lib))
				}
			}
			r.units[k] = unitLaunches{u: u, off: len(out) - key.ops, key: key}
			k++
			i = j - 1
		case op.Kind == verify.OpKernel:
			out = append(out, r.ringStep(prog, op))
		}
	}
	r.launches, r.spare = out, r.launches
}

// at returns the op at pos.
func at(prog *verify.Schedule, pos verify.Pos) *verify.Op {
	return &prog.Streams[pos.Stream][pos.Index]
}

// CommStream returns the stream index dedicated to communication kernels
// (meaningful only when comm is enabled).
func (r *Runner) CommStream() int {
	if r.lead != nil {
		return r.lead.CommStream()
	}
	return r.prog.CommStream
}

// execState carries the per-batch bookkeeping of issuing a program.
type execState struct {
	// launches is the program's launch list; next indexes the spec the
	// next launch issues, and so counts the kernels launched.
	launches   []gpusim.KernelSpec
	next       int
	env        graph.Env
	evalValues bool
	events     int // all events+waits (sync bookkeeping included)
	profEvents int // events recorded purely for profiling
	// ev holds the device event each program record produced, by event ID.
	ev []*gpusim.Event
	// Profiling events for metric extraction: the pairs wrapping measured
	// units, the end records of measured epochs, each super-epoch's start
	// (nil unless one of its epochs is measured), and the batch span.
	unitSpans []unitSpan
	epochEnds []epochEnd
	seStart   []*gpusim.Event
	span      [2]*gpusim.Event
}

type unitSpan struct {
	u          *enumerate.Unit
	start, end *gpusim.Event
}

type epochEnd struct {
	ep    *enumerate.Epoch
	super int
	ev    *gpusim.Event
}

// resetState clears the runner's reusable execution state for a batch of
// prog, keeping slice capacity from batch to batch.
func (r *Runner) resetState(prog *verify.Schedule, launches []gpusim.KernelSpec) *execState {
	st := &r.st
	st.launches, st.next = launches, 0
	st.env = nil
	st.evalValues = false
	st.events, st.profEvents = 0, 0
	st.ev = resize(st.ev, prog.NumEvents)
	st.seStart = resize(st.seStart, len(r.Plan.Supers))
	st.unitSpans = st.unitSpans[:0]
	st.epochEnds = st.epochEnds[:0]
	st.span = [2]*gpusim.Event{}
	return st
}

// resize returns a cleared slice of n events, reusing s's storage.
func resize(s []*gpusim.Event, n int) []*gpusim.Event {
	if cap(s) < n {
		return make([]*gpusim.Event, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RunBatch dispatches one mini-batch with the plan's current variable
// bindings. When inputs is non-nil the values are computed through the CPU
// oracle in dispatch order (catching any dependency-violating schedule);
// otherwise only timing is simulated.
func (r *Runner) RunBatch(inputs graph.Env, params graph.Env) BatchResult {
	prog, launches := r.issued()
	dev := r.Dev
	dev.Reset()
	st := r.resetState(prog, launches)
	st.evalValues = inputs != nil
	if st.evalValues {
		st.env = make(graph.Env, len(r.Plan.G.Values))
		for _, v := range r.Plan.G.Inputs {
			t, ok := inputs[v]
			if !ok {
				panic(fmt.Sprintf("wire: unbound input %s (%s)", v, v.Name))
			}
			st.env[v] = t
		}
		r.Plan.G.BindConsts(st.env, params)
	}

	if r.Cfg.Profile {
		st.span[0] = r.recordProfEvent(st, 0)
	}
	for i, se := range r.Plan.Supers {
		if r.Cfg.Profile && r.superEpochRecording(se) {
			st.seStart[i] = r.recordProfEvent(st, 0)
		}
		r.issue(st, prog, i, prog.Issue[prog.Supers[i]:prog.Supers[i+1]])
	}
	r.issue(st, prog, -1, prog.Issue[prog.Supers[len(r.Plan.Supers)]:])
	if r.Cfg.Profile {
		st.span[1] = r.recordProfEvent(st, 0)
	}
	if st.next != len(launches) {
		panic("wire: the launch list is out of step with its program")
	}
	dev.Synchronize()

	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	clear(r.metrics)
	res := BatchResult{
		Metrics:    r.metrics,
		TotalUs:    dev.CPUTimeUs(),
		Kernels:    st.next,
		Events:     st.events,
		ProfEvents: st.profEvents,
		Env:        st.env,
	}
	if len(prog.Buckets) > 0 {
		commStats(dev.Records(), &res)
	}
	if r.Cfg.Profile {
		r.extractMetrics(st, &res)
	}
	if r.obs != nil {
		r.obs.Trace.AddSpan(obs.PIDDispatch, obs.TIDWirer, "dispatch batch", "wirer",
			r.traceOffsetUs, res.TotalUs, map[string]interface{}{
				"kernels": res.Kernels,
				"events":  res.Events,
			})
	}
	return res
}

// superEpochRecording reports whether any epoch variable in the super-epoch
// needs a measurement this trial.
func (r *Runner) superEpochRecording(se *enumerate.SuperEpoch) bool {
	for _, ep := range se.Epochs {
		if v := r.Plan.EpochVars[ep]; v != nil && v.Recording() {
			return true
		}
	}
	return false
}

// recordEvent places a synchronization event and counts it.
//
//astra:hotpath
func (r *Runner) recordEvent(st *execState, stream int) *gpusim.Event {
	st.events++
	return r.Dev.RecordEvent(stream)
}

// recordProfEvent marks an event as pure profiling instrumentation; its
// cost is what the §6.4 "<0.5% overhead" claim is about. Synchronization
// events exist for correctness regardless of profiling.
//
//astra:hotpath
func (r *Runner) recordProfEvent(st *execState, stream int) *gpusim.Event {
	st.profEvents++
	return r.recordEvent(st, stream)
}

// issue hands a stretch of the program to the device in issue order. A
// unit's ops go through dispatchUnit, ring steps launch as resolved, and
// records keep their device event for the waits naming it. super is the
// super-epoch the stretch belongs to (-1 for the batch tail); its measured
// epochs' end records are kept for their metrics.
//
//astra:hotpath
func (r *Runner) issue(st *execState, prog *verify.Schedule, super int, order []verify.Pos) {
	for i := 0; i < len(order); i++ {
		pos := order[i]
		op := at(prog, pos)
		switch {
		case op.Unit != nil:
			// A unit's ops are contiguous in issue order.
			j := i + 1
			for j < len(order) && at(prog, order[j]).Unit == op.Unit {
				j++
			}
			r.dispatchUnit(st, op.Unit, pos.Stream, j-i)
			i = j - 1
		case op.Kind == verify.OpKernel:
			r.launch(st, pos.Stream)
		case op.Kind == verify.OpRecord:
			ev := r.recordEvent(st, pos.Stream)
			st.ev[op.Event] = ev
			if op.Epoch != nil && super >= 0 && st.seStart[super] != nil && r.Plan.EpochVarID[op.Epoch] != "" {
				st.epochEnds = append(st.epochEnds, epochEnd{op.Epoch, super, ev})
			}
		case op.Kind == verify.OpWait:
			r.Dev.WaitEventTag(pos.Stream, st.ev[op.Event], op.Tag)
			st.events++ // waits cost the same bookkeeping CPU time
		}
	}
}

// ringStep is the kernel of one ring all-reduce step. Each step moves
// bytes/n over one link (the classic two-phase ring), so it runs for the
// serialization time plus the per-hop latency. With identical
// deterministic replicas every worker reaches the readiness events at the
// same simulated time, so gating on the local events is exactly the global
// ring dependency; under per-worker noise it is the optimistic bound, and
// the cluster step still aggregates as the max over workers.
func (r *Runner) ringStep(prog *verify.Schedule, op *verify.Op) gpusim.KernelSpec {
	c := r.Cfg.Comm
	return gpusim.KernelSpec{
		Name:       op.Name,
		Tiles:      1,
		TileTimeUs: float64(prog.Buckets[op.Bucket].Bytes)/float64(c.Workers)/c.BytesPerUs + c.LatencyUs,
		SetupUs:    0.5,
	}
}

// unitLabel names a schedule unit for the dispatch trace track.
func unitLabel(u *enumerate.Unit) string {
	switch u.Kind {
	case enumerate.UnitGEMMGroup:
		return "group " + u.Group.ID
	case enumerate.UnitEWChain:
		return fmt.Sprintf("ew-chain[%d]", len(u.Nodes))
	default:
		return u.Nodes[0].Op.String()
	}
}

// dispatchUnit launches the n ops of one unit on its stream.
//
//astra:hotpath
func (r *Runner) dispatchUnit(st *execState, u *enumerate.Unit, stream, n int) {
	if r.obs != nil && r.traceDetail {
		t0 := r.Dev.CPUTimeUs()
		defer func() {
			// lint:ok escape trace-detail span arguments, only built when -trace-detail is on
			args := map[string]interface{}{"stream": stream}
			r.obs.Trace.AddSpan(obs.PIDDispatch, obs.TIDWirer, unitLabel(u), "dispatch",
				r.traceOffsetUs+t0, r.Dev.CPUTimeUs()-t0, args)
		}()
	}
	// Event pairs wrap only regions whose adaptive variables still need a
	// measurement this trial: converged regions are never re-measured
	// (§4.1 — one measurement suffices), which is what keeps the always-on
	// instrumentation under the 0.5%% budget of §6.4.
	profileUnit := false
	if r.Cfg.Profile {
		if v := r.Plan.KernelVars[u]; v != nil && v.Recording() {
			profileUnit = true
		}
		if u.Kind == enumerate.UnitGEMMGroup {
			if v := r.Plan.ChunkVars[u.Group]; v != nil && v.Recording() {
				profileUnit = true
			}
		}
	}
	var start *gpusim.Event
	if profileUnit {
		start = r.recordProfEvent(st, stream)
	}
	// XLA's embedding pathology: each lookup bounces through the host
	// (§6.6) instead of staying on the device.
	host := r.Cfg.EmbeddingHostTransfer && u.Kind == enumerate.UnitSingle &&
		(u.Nodes[0].Op == graph.OpLookup || u.Nodes[0].Op == graph.OpLookupGrad)
	for range n {
		if host {
			r.Dev.HostTransfer(stream, int64(u.Nodes[0].Out.Shape.NumElements())*8)
		}
		r.launch(st, stream)
	}
	for _, node := range u.Nodes {
		r.eval(st, node)
	}
	if profileUnit {
		st.unitSpans = append(st.unitSpans, unitSpan{u, start, r.recordProfEvent(st, stream)})
	}
}

// libFor reads the unit's kernel-library variable (or the default).
func (r *Runner) libFor(u *enumerate.Unit) kernels.Library {
	if v := r.Plan.KernelVars[u]; v != nil {
		return kernels.Library(v.Current())
	}
	return kernels.CuBLAS
}

// unitKernel resolves the kernel a unit's op launches under library lib:
// a single operator's own kernel, a fused elementwise chain over its
// widest operand, or a fusion group's op — each GEMM chunk as one GEMM
// (fused over its members when it has several), each gather copy sized to
// its chunk's operands, and a ladder's accumulator adds.
func unitKernel(op *verify.Op, lib kernels.Library) gpusim.KernelSpec {
	u := op.Unit
	switch u.Kind {
	case enumerate.UnitSingle:
		return kernels.ForNode(u.Nodes[0], lib)
	case enumerate.UnitEWChain:
		elems := 0
		for _, n := range u.Nodes {
			if e := n.Out.Shape.NumElements(); e > elems {
				elems = e
			}
		}
		return kernels.FusedElementwise(len(u.Nodes), elems)
	}
	grp := u.Group
	members := grp.GEMMs[op.First : op.First+op.Members]
	switch {
	case op.Members == 0:
		return kernels.Elementwise("add", grp.GEMMs[0].Out.Shape.NumElements())
	case op.Kind == verify.OpCopy:
		var bytes int64
		for _, m := range members {
			bytes += int64(operandBytes(grp, m))
		}
		return kernels.Copy(bytes)
	case op.Members == 1:
		return kernels.ForNode(members[0], lib)
	default:
		return kernels.GEMM(lib, fusedShape(grp, members))
	}
}

// operandBytes returns the bytes of the member's fusable operand.
func operandBytes(grp *enumerate.FusionGroup, m *graph.Node) int {
	side := 1
	if grp.Kind == enumerate.SharedRight {
		side = 0
	}
	return m.Inputs[side].Shape.NumElements() * 8
}

// fusedShape computes the fused GEMM problem size for a chunk of members.
func fusedShape(grp *enumerate.FusionGroup, members []*graph.Node) kernels.GEMMShape {
	first := members[0]
	s := kernels.GEMMShape{
		M: first.Inputs[0].Shape.Rows(),
		K: first.Inputs[0].Shape.Cols(),
		N: first.Inputs[1].Shape.Cols(),
	}
	for _, m := range members[1:] {
		switch grp.Kind {
		case enumerate.SharedLeft:
			s.N += m.Inputs[1].Shape.Cols()
		case enumerate.SharedRight:
			s.M += m.Inputs[0].Shape.Rows()
		case enumerate.Ladder:
			s.K += m.Inputs[0].Shape.Cols()
		}
	}
	return s
}

// launch issues the launch list's next spec to the device and counts it.
//
//astra:hotpath
func (r *Runner) launch(st *execState, stream int) {
	r.Dev.AdvanceCPU(r.Cfg.PerOpCPUUs)
	r.Dev.Launch(stream, st.launches[st.next])
	st.next++
}

// eval computes a node's value on the CPU oracle, materializing any view
// transposes its inputs read through.
//
//astra:hotpath
func (r *Runner) eval(st *execState, n *graph.Node) {
	if !st.evalValues {
		return
	}
	for _, in := range n.Inputs {
		if _, ok := st.env[in]; ok {
			continue
		}
		p := in.Producer
		if p != nil && p.Op == graph.OpTranspose {
			graph.EvalNode(p, st.env)
			continue
		}
		panic(fmt.Sprintf("wire: schedule violates dependencies: %s needs %s", n, in))
	}
	graph.EvalNode(n, st.env)
}

// extractMetrics turns the recorded event pairs into the per-variable
// metrics the explorer observes (§4.7): per-group times for chunk and
// library variables, per-epoch completion times for the stream composites,
// and the end-to-end batch time for the allocation policy.
func (r *Runner) extractMetrics(st *execState, res *BatchResult) {
	for _, sp := range st.unitSpans {
		t := gpusim.Elapsed(sp.start, sp.end)
		if sp.u.Kind == enumerate.UnitGEMMGroup {
			if v := r.Plan.ChunkVars[sp.u.Group]; v != nil {
				res.Metrics[v.ID] = t
			}
		}
		if v := r.Plan.KernelVars[sp.u]; v != nil {
			res.Metrics[v.ID] = t
		}
	}
	// An epoch's end records are adjacent; its completion time is the
	// latest of them.
	for i := 0; i < len(st.epochEnds); {
		e := st.epochEnds[i]
		end := math.Inf(-1)
		for ; i < len(st.epochEnds) && st.epochEnds[i].ep == e.ep; i++ {
			if t := st.epochEnds[i].ev.TimeUs(); t > end {
				end = t
			}
		}
		id := r.Plan.EpochVarID[e.ep]
		res.Metrics[id] = end - st.seStart[e.super].TimeUs()
		// Class variables inside the epoch share the epoch metric: the
		// composite exhaustive variable is the one recorded, but the
		// explorer may also attribute to leaves when epochs are tiny.
		for _, cls := range e.ep.Classes {
			if v := r.Plan.StreamVars[cls]; v != nil {
				res.Metrics[v.ID] = res.Metrics[id]
			}
		}
	}
	if st.span[0] != nil && st.span[1] != nil {
		total := gpusim.Elapsed(st.span[0], st.span[1])
		if r.Plan.AllocVar != nil {
			res.Metrics[r.Plan.AllocVar.ID] = total
		}
		// The comm variables are judged end-to-end: overlap quality shows
		// up only in the whole batch time, never in the exchange span
		// alone.
		if r.Plan.CommBucketVar != nil {
			res.Metrics[r.Plan.CommBucketVar.ID] = total
		}
		if r.Plan.CommPlaceVar != nil {
			res.Metrics[r.Plan.CommPlaceVar.ID] = total
		}
		res.Metrics["e2e"] = total
	}
}
