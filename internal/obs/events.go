package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TrialEvent is one structured record of the session event log: exactly one
// per mini-batch, whether an exploration trial or a wired batch. It is the
// machine-readable form of Table 7's convergence data — what the explorer
// tried, what it measured, and what the batch cost.
type TrialEvent struct {
	// Batch is the 1-based mini-batch number within the session.
	Batch int `json:"batch"`
	// Trial is the 1-based exploration trial number; for wired batches it
	// holds the final trial count.
	Trial int `json:"trial"`
	// Phase is "explore" while the explorer is active, "wired" afterwards.
	Phase string `json:"phase"`
	// StartUs is the batch's start on the session-wide simulated clock.
	StartUs float64 `json:"start_us"`
	// BatchUs is the simulated duration of the mini-batch.
	BatchUs float64 `json:"batch_us"`
	// Kernels and Events count kernel launches and cudaEvent operations.
	Kernels int `json:"kernels"`
	Events  int `json:"events"`
	// ProfOverheadUs is the CPU cost of profiling-only events (§6.4).
	ProfOverheadUs float64 `json:"profiling_overhead_us"`
	// HitRate is the profile index hit rate after the batch.
	HitRate float64 `json:"profile_hit_rate"`
	// FrozenVars/TotalVars track exploration convergence.
	FrozenVars int `json:"frozen_vars"`
	TotalVars  int `json:"total_vars"`
	// Bindings maps adaptive-variable IDs to the choice labels this batch
	// ran with (captured before the explorer advanced).
	Bindings map[string]string `json:"bindings,omitempty"`
	// Metrics holds the per-variable profiled values fed to the explorer.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Drift marks the wired batch on which the drift watchdog fired and
	// thawed the explorer back into exploration.
	Drift bool `json:"drift,omitempty"`
	// Workers is the data-parallel worker count of a multi-GPU session
	// (omitted for single-GPU sessions), CommUs the link-busy time of the
	// batch's gradient exchange, and WorkerUs the per-worker batch times
	// whose max is BatchUs.
	Workers  int       `json:"workers,omitempty"`
	CommUs   float64   `json:"comm_us,omitempty"`
	WorkerUs []float64 `json:"worker_us,omitempty"`
	// VerifyFindings lists plan-verifier findings first surfaced by this
	// batch's configuration (rendered one per line); empty when the
	// binding verified clean or was already checked.
	VerifyFindings []string `json:"verify_findings,omitempty"`
	// Fabric names the interconnect of a multi-GPU session ("pcie3",
	// "nvlink1"); empty for single-GPU sessions.
	Fabric string `json:"fabric,omitempty"`
	// Froze lists the adaptive-variable IDs the explorer froze during this
	// batch, sorted; Reexplorations counts watchdog-triggered re-explore
	// rounds completed so far. Together with FrozenVars/TotalVars these
	// drive the analyzer's convergence report.
	Froze          []string `json:"froze,omitempty"`
	Reexplorations int      `json:"reexplorations,omitempty"`
	// Cost-model prior quality, cumulative as of this batch (all zero when
	// the session ran without a prior): PriorHits counts freezes whose
	// measured best was the prior's top-ranked candidate, PriorMisses the
	// rest, PriorPruned candidates skipped unmeasured, and PriorRankInv the
	// summed rank positions of measured bests on misses (0 = perfect
	// ranking). See docs/COSTMODEL.md.
	PriorHits    int `json:"prior_hits,omitempty"`
	PriorMisses  int `json:"prior_misses,omitempty"`
	PriorPruned  int `json:"prior_pruned,omitempty"`
	PriorRankInv int `json:"prior_rank_inversions,omitempty"`
	// Profiles carries the full per-worker kernel timelines of the batch
	// (one BatchProfile per data-parallel rank). This is what
	// internal/analyze consumes to rebuild the dependency graph, so the
	// record is self-contained: an event log alone suffices to answer
	// "where did this batch's time go".
	Profiles []BatchProfile `json:"profiles,omitempty"`

	// SessionMeta stamps the session's construction facts on every record
	// (its fields flatten into the record's JSON).
	SessionMeta
}

// SessionMeta is the session-construction metadata the wire session stamps
// on every event record: enough for a what-if scenario checker
// (astra-whatif -check) to rebuild an equivalent session from the event log
// alone and re-simulate perturbed configurations for ground truth.
type SessionMeta struct {
	// Model names the zoo model, ModelScale how it was sized ("default",
	// "tiny", or "custom" for hand-built configs the log cannot
	// reconstruct), and PerDeviceBatch the per-worker mini-batch size.
	Model          string `json:"model,omitempty"`
	ModelScale     string `json:"model_scale,omitempty"`
	PerDeviceBatch int    `json:"per_device_batch,omitempty"`
	// Preset is the enumerate preset the plan was built with (empty for
	// hand-assembled Options), and NumStreams the effective stream count.
	Preset     string `json:"preset,omitempty"`
	NumStreams int    `json:"num_streams,omitempty"`
	// Seed, PerOpCPUUs, LaunchOverheadUs and KernelSetupUs pin the cost
	// constants the run simulated under.
	Seed             uint64  `json:"seed,omitempty"`
	PerOpCPUUs       float64 `json:"per_op_cpu_us,omitempty"`
	LaunchOverheadUs float64 `json:"launch_overhead_us,omitempty"`
	KernelSetupUs    float64 `json:"kernel_setup_us,omitempty"`
	// Noisy marks sessions with autoboost jitter or fault injection on;
	// their timings are seed-path dependent and cannot be re-simulated
	// from the log alone.
	Noisy bool `json:"noisy,omitempty"`
}

// EventLog writes TrialEvents as JSON Lines. The zero sink is valid: Emit
// is a no-op until SetSink attaches a writer, so instrumented code never
// needs to branch on whether an event log was requested.
type EventLog struct {
	mu    sync.Mutex
	enc   *json.Encoder
	count int
}

// NewEventLog returns a log writing to w (nil for a disabled log).
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{}
	l.SetSink(w)
	return l
}

// SetSink attaches (or detaches, with nil) the output writer.
func (l *EventLog) SetSink(w io.Writer) {
	l.mu.Lock()
	if w == nil {
		l.enc = nil
	} else {
		l.enc = json.NewEncoder(w)
	}
	l.mu.Unlock()
}

// Emit appends one record. Without a sink it is a no-op.
func (l *EventLog) Emit(ev TrialEvent) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.enc == nil {
		return nil
	}
	l.count++
	return l.enc.Encode(&ev)
}

// Count returns the number of records emitted to the current sink.
func (l *EventLog) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// ReadTrialEvents parses a JSONL event log back into records — the other
// half of the round trip tests rely on.
func ReadTrialEvents(r io.Reader) ([]TrialEvent, error) {
	var out []TrialEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev TrialEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("obs: event log line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: event log: %w", err)
	}
	return out, nil
}
