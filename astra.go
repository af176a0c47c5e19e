// Package astra is a Go reproduction of "Astra: Exploiting Predictability
// to Optimize Deep Learning" (Sivathanu, Chugh, Singapuram, Zhou —
// ASPLOS 2019): a compilation-and-execution framework that optimizes deep
// learning training by exploring an enumerated optimization state space
// online, one configuration per mini-batch, instead of ranking
// configurations with a static cost model.
//
// The package exposes the end-to-end pipeline over a simulated P100-class
// GPU (see DESIGN.md for the substitution argument):
//
//	model := astra.BuildModel("sublstm", astra.ModelConfig{Batch: 16})
//	sess := astra.Compile(model, astra.Options{Level: astra.LevelAll})
//	stats := sess.Explore()              // online, work-conserving search
//	fmt.Println(stats.Speedup)           // vs the native eager framework
//
// Lower-level building blocks (graph IR, autodiff, the enumerator, the
// adaptive-variable explorer, the GPU simulator) live in internal packages;
// this package is the stable surface a downstream user drives.
package astra

import (
	"fmt"
	"io"

	"astra/internal/baselines"
	"astra/internal/gpusim"
	"astra/internal/job"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/profile"
	"astra/internal/wire"
)

// Level selects the cumulative adaptation dimensions, matching the ablation
// columns of the paper's tables.
type Level string

// Adaptation levels.
const (
	// LevelF adapts GEMM fusion granularity only (Astra_F).
	LevelF Level = "F"
	// LevelFK adds GEMM kernel-library selection (Astra_FK).
	LevelFK Level = "FK"
	// LevelFKS adds multi-stream scheduling (Astra_FKS).
	LevelFKS Level = "FKS"
	// LevelAll adds memory-allocation strategy adaptation (Astra_all).
	LevelAll Level = "All"
)

// ModelConfig sizes a model from the built-in zoo. Zero fields take the
// paper's evaluation-scale defaults.
type ModelConfig struct {
	Batch  int
	SeqLen int
	Hidden int
	Vocab  int
	Layers int
	// Embedding toggles token-id inputs through an embedding table
	// (default true; the XLA comparison uses the dense variant).
	NoEmbedding bool
	// Tiny shrinks the model to unit-test scale.
	Tiny bool
}

// Model wraps a built training graph.
type Model struct{ m *models.Model }

// ModelNames lists the built-in model zoo: the five models of the paper's
// evaluation (§6.1).
func ModelNames() []string { return models.Names() }

// BuildModel constructs a training graph (forward + autodiff backward) for
// a zoo model.
func BuildModel(name string, cfg ModelConfig) (*Model, error) {
	build, ok := models.Get(name)
	if !ok {
		return nil, fmt.Errorf("astra: unknown model %q (have %v)", name, models.Names())
	}
	batch := cfg.Batch
	if batch == 0 {
		batch = 32
	}
	var mc models.Config
	if cfg.Tiny {
		mc = models.TinyConfig(name, batch)
	} else {
		mc = models.DefaultConfig(name, batch)
	}
	if cfg.SeqLen > 0 {
		mc.SeqLen = cfg.SeqLen
	}
	if cfg.Hidden > 0 {
		mc.Hidden = cfg.Hidden
	}
	if cfg.Vocab > 0 {
		mc.Vocab = cfg.Vocab
	}
	if cfg.Layers > 0 {
		mc.Layers = cfg.Layers
	}
	mc.Embedding = !cfg.NoEmbedding
	return &Model{m: build(mc)}, nil
}

// Name returns the model's zoo name.
func (m *Model) Name() string { return m.m.Name }

// Nodes returns the operator count of the training graph.
func (m *Model) Nodes() int { return len(m.m.G.Nodes) }

// GEMMs returns the count of matrix-multiply nodes.
func (m *Model) GEMMs() int { return m.m.G.Stats().MatMuls }

// Trace renders the training graph in the paper's textual trace format.
func (m *Model) Trace() string { return m.m.G.TraceString() }

// Internal returns the underlying model for advanced use (the cmd tools
// and the experiment harness).
func (m *Model) Internal() *models.Model { return m.m }

// Options configures compilation.
type Options struct {
	// Level selects the adaptation dimensions (default LevelAll).
	Level Level
	// Streams is the stream count for stream adaptation (default 2).
	Streams int
	// EvalValues computes real tensor values through the CPU oracle on
	// every mini-batch (slow; for tests and demonstrations of value
	// preservation).
	EvalValues bool
	// LearningRate enables SGD updates when EvalValues is set.
	LearningRate float64
	// Autoboost leaves GPU clock boosting on, violating the repeatability
	// requirement of §7 — exploration still works but picks noisy winners.
	Autoboost bool
	// Jitter overrides the autoboost jitter amplitude (default 0.08 when
	// Autoboost is on).
	Jitter float64
	// Samples requires each measurement to be the mean of this many
	// repeated trials before a choice can freeze (default 1, the paper's
	// first-measurement-wins rule). Raise it when Autoboost is on so the
	// explorer averages out clock noise.
	Samples int
	// Watchdog enables the wired-phase drift watchdog: sustained deviation
	// of wired batch times from the wired expectation thaws the explorer
	// and re-explores in-session.
	Watchdog bool
	// Faults injects deterministic hardware misbehavior into the simulated
	// device (straggler kernels, clock-throttle windows) for testing the
	// noise-robustness machinery.
	Faults gpusim.FaultConfig
	// Workers >= 2 compiles a data-parallel session: that many simulated
	// devices step identical replicas of the model, exchanging gradients
	// with an event-level ring all-reduce whose bucket size and stream
	// placement are explored online like every other schedule choice.
	Workers int
	// Fabric names the gradient-exchange interconnect for multi-worker
	// sessions: "pcie3" (default) or "nvlink1".
	Fabric string
	// ProfileSnapshot warm-starts the session from a profile index saved
	// by Session.SaveProfile in an earlier run of the same job.
	ProfileSnapshot io.Reader
}

// Session is a compiled training job: the enumerated plan plus the online
// explorer, bound to a fresh simulated device.
type Session struct {
	s     *wire.Session
	model *Model
}

// Compile runs the enumerator over the model and prepares the runtime.
// An unknown level, or a multi-worker configuration (Options.Workers >= 2)
// with an unknown fabric name, panics; use distsim's fabric names
// ("pcie3", "nvlink1").
func Compile(m *Model, opts Options) *Session {
	shape := job.Shape{Level: string(opts.Level), Streams: opts.Streams, Workers: opts.Workers, Fabric: opts.Fabric}
	if shape.Level == "" {
		shape.Level = string(LevelAll)
	}
	cfg := shape.SessionConfig()
	cfg.Device.Autoboost = opts.Autoboost
	if opts.Jitter > 0 {
		cfg.Device.Autoboost = true
		cfg.Device.BoostJitter = opts.Jitter
	}
	cfg.Device.Faults = opts.Faults
	cfg.EvalValues = opts.EvalValues
	cfg.LearningRate = opts.LearningRate
	cfg.Index = profile.NewIndex()
	if opts.Samples > 1 {
		cfg.Index.SetPolicy(profile.FixedSamples(opts.Samples))
	}
	if opts.ProfileSnapshot != nil {
		// Best-effort warm start: a corrupt snapshot leaves a cold index.
		_ = cfg.Index.Load(opts.ProfileSnapshot)
	}
	s := wire.NewSession(m.m, cfg)
	s.Drift = wire.DriftConfig{Enabled: opts.Watchdog}
	return &Session{s: s, model: m}
}

// ExploreStats reports a completed exploration.
type ExploreStats struct {
	// Configs is the number of configurations explored (one mini-batch
	// each — the Table 7 metric).
	Configs int
	// WiredBatchUs is the mini-batch time under the chosen configuration.
	WiredBatchUs float64
	// NativeBatchUs is the same mini-batch under the stock eager
	// framework on an identical device.
	NativeBatchUs float64
	// Speedup is NativeBatchUs / WiredBatchUs.
	Speedup float64
	// AllocStrategies is the size of the memory-allocation fork.
	AllocStrategies int
	// ProfilingOverhead is the fraction of batch time spent on profiling
	// events (always-on; §6.4 claims <0.5%).
	ProfilingOverhead float64
	// Workers is the data-parallel degree (1 for single-GPU sessions) and
	// CommUs the wired batch's measured gradient-exchange link-busy time.
	Workers int
	CommUs  float64
}

// Explore runs exploration mini-batches until every adaptive variable is
// frozen at its measured best, then reports the outcome.
func (s *Session) Explore() ExploreStats {
	s.s.Explore()
	res := s.s.Step()
	nat := baselines.RunNative(s.model.m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
	stats := ExploreStats{
		Configs:         s.s.Trials,
		WiredBatchUs:    res.TotalUs,
		NativeBatchUs:   nat.TimeUs,
		AllocStrategies: len(s.s.Plan.Allocs),
		Workers:         len(s.s.Peers) + 1,
		CommUs:          res.CommUs,
	}
	if res.TotalUs > 0 {
		stats.Speedup = nat.TimeUs / res.TotalUs
		stats.ProfilingOverhead = res.ProfilingOverheadUs() / res.TotalUs
	}
	return stats
}

// Step runs one training mini-batch (exploring until converged, then
// wired) and returns its simulated duration in microseconds.
func (s *Session) Step() float64 { return s.s.Step().TotalUs }

// Done reports whether exploration has converged.
func (s *Session) Done() bool { return s.s.Done() }

// Err reports a failed exploration: non-nil when the explorer got stuck
// (active variables were never measured). Done() is also true then, so
// callers must check Err before trusting the wired schedule.
func (s *Session) Err() error { return s.s.Err() }

// DriftEvents counts wired-phase drift-watchdog firings (thaw +
// re-exploration) so far in the session.
func (s *Session) DriftEvents() int { return s.s.DriftEvents }

// Loss returns the current loss value; it requires EvalValues.
func (s *Session) Loss() (float64, error) {
	if !s.s.EvalValues {
		return 0, fmt.Errorf("astra: Loss requires Options.EvalValues")
	}
	res := s.s.Step()
	return res.Env[s.model.m.G.Loss].Data()[0], nil
}

// UpdateTree renders the exploration update tree (Figure 2's structure).
func (s *Session) UpdateTree() string {
	if s.s.Plan.Tree == nil {
		return "(no adaptive variables)"
	}
	return s.s.Plan.Tree.Render()
}

// SaveProfile snapshots the profile index so a later session of the same
// job can warm-start (Options.ProfileSnapshot) instead of re-exploring.
func (s *Session) SaveProfile(w io.Writer) error { return s.s.Ix.Save(w) }

// Instrument attaches a fresh telemetry bundle — session-wide trace,
// metrics registry, JSONL event log — to the whole pipeline and returns
// it. Call before Explore so the trace covers every trial; attach an event
// sink with Telemetry.SetEventSink to enable the JSONL log.
func (s *Session) Instrument() *obs.Telemetry {
	tel := obs.NewTelemetry()
	s.s.Instrument(tel)
	return tel
}

// Telemetry returns the attached bundle (nil when Instrument was not
// called).
func (s *Session) Telemetry() *obs.Telemetry { return s.s.Obs }

// Internal exposes the underlying session for the experiment harness.
func (s *Session) Internal() *wire.Session { return s.s }
