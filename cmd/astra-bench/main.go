// Command astra-bench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated substrate.
//
// Usage:
//
//	astra-bench -experiment table2        # one experiment
//	astra-bench -experiment all           # everything (takes a while)
//	astra-bench -experiment all -quick    # reduced sweeps, same shapes
//	astra-bench -experiment all -parallel 4        # 4 workers per experiment
//	astra-bench -json-out BENCH.json               # machine-readable timings
//	astra-bench -json-out - -baseline BENCH_PR5.json  # fail on >20% regression
//	astra-bench -list
//	astra-bench -experiment table2 -prom-out -   # harness metrics to stdout
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"astra/internal/analyze"
	"astra/internal/harness"
	"astra/internal/job"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/parallel"
	"astra/internal/wire"
)

// ExperimentBench is one experiment's cost in a benchmark report: wall
// clock plus the allocator's view of the run (heap allocations and bytes,
// from runtime.MemStats deltas — experiments run one after another, so the
// deltas attribute cleanly even when cells inside an experiment fan out).
type ExperimentBench struct {
	ID     string  `json:"id"`
	WallNs int64   `json:"wall_ns"`
	Allocs uint64  `json:"allocs"`
	Bytes  uint64  `json:"bytes"`
	WallS  float64 `json:"wall_s"`
}

// BenchReport is the -json-out schema (committed as BENCH_PR5.json and
// compared by CI's bench-smoke job).
type BenchReport struct {
	GoOS        string            `json:"goos"`
	GoArch      string            `json:"goarch"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Quick       bool              `json:"quick"`
	Parallel    int               `json:"parallel"`
	Experiments []ExperimentBench `json:"experiments"`
	TotalWallNs int64             `json:"total_wall_ns"`
	// Attribution is the analyzer's view of a fixed probe session (see
	// attributionProbe): where simulated time goes, by critical-path class
	// and idle-gap category. It is computed on the simulated clock, so a
	// baseline diff that moves these numbers is a behavior change in the
	// simulator or dispatcher, never machine noise.
	Attribution *AttributionReport `json:"attribution,omitempty"`
}

// AttributionReport summarizes analyze.AnalyzeRun over the probe session.
type AttributionReport struct {
	Model       string             `json:"model"`
	Batches     int                `json:"batches"`
	AnalyzedUs  float64            `json:"analyzed_us"`
	PathBlameUs map[string]float64 `json:"path_blame_us"`
	BusyUs      map[string]float64 `json:"busy_us"`
	IdleUs      map[string]float64 `json:"idle_us"`
}

// attributionProbe runs a small instrumented session (GPU-bound sublstm,
// fusion preset, explore to convergence plus two wired batches), analyzes
// its event log, and verifies the exact-reconciliation invariants before
// reporting. Everything is on the simulated clock: byte-stable across
// machines and worker counts.
func attributionProbe() (*AttributionReport, error) {
	sh := job.Shape{Model: "sublstm", Batch: 16, Level: "F", Workers: 1}
	build, ok := models.Get(sh.Model)
	if !ok {
		return nil, fmt.Errorf("attribution probe: model sublstm missing")
	}
	// A short, wide hand-sized model (GPU-bound and quick to explore), so
	// only the session comes from the shape's lowering.
	mcfg := models.Config{Batch: sh.Batch, SeqLen: 3, Hidden: 1024, Embed: 128,
		Vocab: 100, Embedding: true, Backward: true}
	s := wire.NewSession(build(mcfg), sh.SessionConfig())
	tel := obs.NewTelemetry()
	var sink bytes.Buffer
	tel.SetEventSink(&sink)
	s.Instrument(tel)
	s.Explore()
	s.Step()
	s.Step()
	events, err := obs.ReadTrialEvents(&sink)
	if err != nil {
		return nil, fmt.Errorf("attribution probe: %v", err)
	}
	run, err := analyze.AnalyzeRun(events, 1)
	if err != nil {
		return nil, fmt.Errorf("attribution probe: %v", err)
	}
	if err := analyze.Verify(run); err != nil {
		return nil, fmt.Errorf("attribution probe: %v", err)
	}
	return &AttributionReport{
		Model:       "sublstm",
		Batches:     len(run.Batches),
		AnalyzedUs:  run.AnalyzedUs,
		PathBlameUs: run.PathBlame,
		BusyUs:      run.BusyUs,
		IdleUs:      run.IdleUs,
	}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astra-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "all", "experiment ID (see -list), comma-separated IDs, or 'all'")
	quick := fs.Bool("quick", false, "reduced batch sweeps; same qualitative shapes")
	par := fs.Int("parallel", 0, "workers per experiment's independent cells; 0 serial, <0 one per CPU (tables are byte-identical either way)")
	verbose := fs.Bool("v", false, "print per-cell progress")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	promOut := fs.String("prom-out", "", "write harness metrics (Prometheus text) to this file at exit ('-' for stdout)")
	jsonOut := fs.String("json-out", "", "write a BenchReport JSON to this file ('-' for stdout)")
	baseline := fs.String("baseline", "", "compare against this BenchReport JSON; exit 1 on regression")
	tolerance := fs.Float64("tolerance", 0.20, "relative wall/allocs regression allowed vs -baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tolerance < 0 || math.IsNaN(*tolerance) || math.IsInf(*tolerance, 0) {
		fmt.Fprintf(stderr, "astra-bench: -tolerance %g out of range (valid: a finite fraction, 0 or more)\n", *tolerance)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(harness.Names(), "\n"))
		return 0
	}
	opts := harness.Options{Quick: *quick, Parallel: *par}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(stderr, "  ..", s) }
	}
	valid := harness.Names()
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = valid
	}
	for _, id := range ids {
		if !slices.Contains(valid, id) {
			fmt.Fprintf(stderr, "astra-bench: unknown experiment %q (valid: %s)\n", id, strings.Join(valid, ", "))
			return 2
		}
	}
	reg := obs.NewRegistry()
	runs := reg.Counter("harness.runs", "experiments executed")
	wall := reg.Histogram("harness.run_seconds", "experiment wall time",
		1, 5, 10, 30, 60, 120, 300, 600, 1800)
	report := BenchReport{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Parallel:   *par,
	}
	var ms0, ms1 runtime.MemStats
	for _, id := range ids {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		t, err := harness.Run(id, opts)
		if err != nil {
			fmt.Fprintf(stderr, "astra-bench: %s: %v\n", id, err)
			return 1
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		secs := elapsed.Seconds()
		runs.Inc()
		wall.Observe(secs)
		reg.Gauge("harness.last_run_seconds."+id, "wall time of the last run").Set(secs)
		report.Experiments = append(report.Experiments, ExperimentBench{
			ID:     id,
			WallNs: elapsed.Nanoseconds(),
			WallS:  secs,
			Allocs: ms1.Mallocs - ms0.Mallocs,
			Bytes:  ms1.TotalAlloc - ms0.TotalAlloc,
		})
		report.TotalWallNs += elapsed.Nanoseconds()
		fmt.Fprintln(stdout, t)
		fmt.Fprintf(stderr, "[%s took %.1fs]\n\n", id, secs)
	}
	ps := parallel.Stats()
	reg.Counter("parallel.tasks_total", "tasks executed by the worker pool").Add(float64(ps.Tasks))
	reg.Gauge("parallel.max_in_flight", "high-water mark of concurrent pool tasks").Set(float64(ps.MaxInFlight))
	if *promOut != "" {
		if err := writeTo(*promOut, stdout, reg.WriteProm); err != nil {
			fmt.Fprintln(stderr, "astra-bench:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		attr, err := attributionProbe()
		if err != nil {
			fmt.Fprintln(stderr, "astra-bench:", err)
			return 1
		}
		report.Attribution = attr
		err = writeTo(*jsonOut, stdout, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(report)
		})
		if err != nil {
			fmt.Fprintln(stderr, "astra-bench:", err)
			return 1
		}
	}
	if *baseline != "" {
		regressions, err := compareBaseline(*baseline, report, *tolerance)
		if err != nil {
			fmt.Fprintln(stderr, "astra-bench:", err)
			return 1
		}
		for _, r := range regressions {
			fmt.Fprintln(stderr, "astra-bench: REGRESSION:", r)
		}
		if len(regressions) > 0 {
			return 1
		}
		fmt.Fprintf(stderr, "astra-bench: no regression vs %s (tolerance %.0f%%)\n", *baseline, *tolerance*100)
	}
	return 0
}

// writeTo runs emit against the named file, or stdout when path is "-".
func writeTo(path string, stdout io.Writer, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wallFloorNs exempts sub-100ms experiments from the wall-clock guard:
// at that scale scheduler noise dwarfs any real regression, and the
// allocation count (which is deterministic) still covers them.
const wallFloorNs = int64(100 * time.Millisecond)

// compareBaseline diffs the current report against a committed one.
// Wall-clock and allocation counts may regress by at most `tol` (relative)
// per experiment; experiments only present on one side are skipped, so a
// quick-subset smoke run can be held against a full baseline.
func compareBaseline(path string, cur BenchReport, tol float64) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	baseBy := make(map[string]ExperimentBench, len(base.Experiments))
	for _, e := range base.Experiments {
		baseBy[e.ID] = e
	}
	var regressions []string
	for _, e := range cur.Experiments {
		b, ok := baseBy[e.ID]
		if !ok {
			continue
		}
		if b.WallNs >= wallFloorNs && float64(e.WallNs) > float64(b.WallNs)*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: wall %.2fs vs baseline %.2fs (>%.0f%% slower)",
				e.ID, e.WallS, b.WallS, tol*100))
		}
		if b.Allocs > 0 && float64(e.Allocs) > float64(b.Allocs)*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs vs baseline %d (>%.0f%% more)",
				e.ID, e.Allocs, b.Allocs, tol*100))
		}
	}
	return regressions, nil
}
