// Command astra-run trains one zoo model end-to-end with a chosen
// dispatcher and prints a timing/exploration report.
//
// Usage:
//
//	astra-run -model sublstm -batch 16 -level All
//	astra-run -model stackedlstm -dispatcher cudnn
//	astra-run -model scrnn -dispatcher native
//	astra-run -model sublstm -trace-out session.json -events-out trials.jsonl -metrics
//	astra-run -model scrnn -workers 4 -fabric nvlink1
//
// With -trace-out the whole session (every exploration trial plus the
// wired batches) exports as one multi-track Chrome/Perfetto trace: device
// streams, launch queues, the CPU dispatch timeline and the exploration
// counter tracks. -events-out writes one JSONL record per mini-batch, and
// -metrics prints the Prometheus text exposition at exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"astra"
	"astra/internal/baselines"
	"astra/internal/gpusim"
	"astra/internal/job"
)

// dispatchers lists the valid -dispatcher values.
var dispatchers = []string{"astra", "native", "tf", "xla", "cudnn"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astra-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "sublstm", "model: "+strings.Join(astra.ModelNames(), ", "))
	batch := fs.Int("batch", 16, "mini-batch size")
	level := fs.String("level", "All", "adaptation level for the astra dispatcher: "+strings.Join(job.Levels(), ", "))
	dispatcher := fs.String("dispatcher", "astra", strings.Join(dispatchers, ", "))
	batches := fs.Int("steps", 3, "post-exploration mini-batches to run")
	report := fs.Bool("report", false, "print the wired schedule report (astra dispatcher only)")
	traceOut := fs.String("trace-out", "", "write the session-wide multi-track Chrome/Perfetto trace to this file")
	eventsOut := fs.String("events-out", "", "write the JSONL exploration event log to this file")
	metrics := fs.Bool("metrics", false, "print the Prometheus metrics exposition at exit")
	timeline := fs.String("timeline", "", "write a Chrome trace of the last mini-batch only (device view)")
	jitter := fs.Float64("jitter", 0, "autoboost clock-jitter amplitude (e.g. 0.08); >0 leaves autoboost on")
	samples := fs.Int("samples", 1, "measurements per configuration before a choice can freeze")
	driftAt := fs.Int("drift-at", 0, "inject a sustained clock throttle from this batch on and enable the drift watchdog")
	workers := fs.Int("workers", 1, "data-parallel workers; >=2 simulates a multi-GPU session with explored gradient bucketing (astra dispatcher only)")
	fabric := fs.String("fabric", "pcie3", "gradient-exchange interconnect for -workers >= 2: "+strings.Join(job.Fabrics(), ", "))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(dispatchers, *dispatcher) {
		fmt.Fprintf(stderr, "astra-run: unknown dispatcher %q (valid: %s)\n", *dispatcher, strings.Join(dispatchers, ", "))
		return 2
	}
	if err := checkRanges(*jitter, *batches, *driftAt); err != nil {
		fmt.Fprintln(stderr, "astra-run:", err)
		return 2
	}
	shape, err := job.Shape{Model: *model, Scale: job.Default, Batch: *batch, Level: *level, Workers: *workers, Fabric: *fabric}.Normalize()
	if err != nil {
		fmt.Fprintln(stderr, "astra-run:", err)
		return 2
	}

	m, err := astra.BuildModel(shape.Model, astra.ModelConfig{Batch: shape.Batch})
	if err != nil {
		fmt.Fprintln(stderr, "astra-run:", err)
		return 1
	}
	fmt.Fprintf(stdout, "model %s: %d graph nodes, %d GEMMs, batch %d\n", m.Name(), m.Nodes(), m.GEMMs(), shape.Batch)

	switch *dispatcher {
	case "astra":
		opts := astra.Options{
			Level:   astra.Level(shape.Level),
			Jitter:  *jitter,
			Samples: *samples,
			Workers: shape.Workers,
			Fabric:  shape.Fabric,
		}
		if shape.Workers >= 2 {
			fmt.Fprintf(stdout, "data-parallel: %d workers over %s, per-device batch %d\n",
				shape.Workers, shape.Fabric, shape.Batch)
		}
		if *driftAt > 0 {
			opts.Watchdog = true
			opts.Faults.ThrottleStartBatch = *driftAt
		}
		err = runAstra(stdout, m, opts, *batches, *report, *traceOut, *eventsOut, *metrics, *timeline)
	case "native", "tf":
		fw := baselines.PyTorch()
		if *dispatcher == "tf" {
			fw = baselines.TensorFlow()
		}
		for i := 0; i < *batches; i++ {
			res := baselines.RunNative(m.Internal().G, gpusim.NewDevice(gpusim.P100()), fw, nil, nil)
			fmt.Fprintf(stdout, "  step %d: %.0f us (%d kernels)\n", i+1, res.TimeUs, res.Kernels)
		}
	case "xla":
		for i := 0; i < *batches; i++ {
			res := baselines.RunXLA(m.Internal().G, gpusim.NewDevice(gpusim.P100()), nil, nil)
			fmt.Fprintf(stdout, "  step %d: %.0f us (%d kernels)\n", i+1, res.TimeUs, res.Kernels)
		}
	case "cudnn":
		for i := 0; i < *batches; i++ {
			res, ok := baselines.RunCuDNN(m.Internal(), gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
			if !ok {
				err = fmt.Errorf("cuDNN has no kernels for %s (long-tail model)", m.Name())
				break
			}
			fmt.Fprintf(stdout, "  step %d: %.0f us (%d kernels)\n", i+1, res.TimeUs, res.Kernels)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "astra-run:", err)
		return 1
	}
	return 0
}

// checkRanges rejects the numeric flags no run can honour: a jitter
// amplitude at which a kernel could run for no time or less, and a
// negative step count or drift batch.
func checkRanges(jitter float64, steps, driftAt int) error {
	if !(jitter >= 0 && jitter < 1) {
		return fmt.Errorf("jitter %v out of range (valid: 0 up to but not including 1, 0 = autoboost off)", jitter)
	}
	if steps < 0 {
		return fmt.Errorf("steps %d out of range (valid: 0 or more)", steps)
	}
	if driftAt < 0 {
		return fmt.Errorf("drift-at %d out of range (valid: 0 or more, 0 = no drift)", driftAt)
	}
	return nil
}

func runAstra(stdout io.Writer, m *astra.Model, opts astra.Options, batches int, report bool, traceOut, eventsOut string, metrics bool, timeline string) error {
	sess := astra.Compile(m, opts)

	// Telemetry must attach before Explore so the trace and event log
	// cover every exploration trial.
	observing := traceOut != "" || eventsOut != "" || metrics
	var eventsFile *os.File
	if observing {
		tel := sess.Instrument()
		if eventsOut != "" {
			f, err := os.Create(eventsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			eventsFile = f
			tel.SetEventSink(f)
		}
	}

	stats := sess.Explore()
	if err := sess.Err(); err != nil {
		return fmt.Errorf("exploration failed: %w", err)
	}
	fmt.Fprintf(stdout, "explored %d configurations across %d allocation strategies\n",
		stats.Configs, stats.AllocStrategies)
	fmt.Fprintf(stdout, "wired mini-batch: %.0f us (native PyTorch: %.0f us) -> speedup %.2fx\n",
		stats.WiredBatchUs, stats.NativeBatchUs, stats.Speedup)
	if stats.Workers > 1 {
		fmt.Fprintf(stdout, "cluster step (%d workers): %.0f us, gradient exchange %.0f us link-busy\n",
			stats.Workers, stats.WiredBatchUs, stats.CommUs)
	}
	fmt.Fprintf(stdout, "always-on profiling overhead: %.3f%%\n", stats.ProfilingOverhead*100)
	for i := 0; i < batches; i++ {
		fmt.Fprintf(stdout, "  step %d: %.0f us\n", i+1, sess.Step())
		if !sess.Done() {
			// A drift event thawed the explorer mid-wired-phase:
			// re-explore in-session and continue wired.
			fmt.Fprintf(stdout, "  drift detected -> re-exploring\n")
			re := sess.Explore()
			if err := sess.Err(); err != nil {
				return fmt.Errorf("re-exploration failed: %w", err)
			}
			fmt.Fprintf(stdout, "  re-wired after %d total configurations: %.0f us\n",
				re.Configs, re.WiredBatchUs)
		}
	}
	if n := sess.DriftEvents(); n > 0 {
		fmt.Fprintf(stdout, "drift events: %d\n", n)
	}
	if report {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, sess.Internal().Report())
	}

	ws := sess.Internal()
	if observing {
		ws.CloseTelemetry()
		tel := sess.Telemetry()

		// End-of-run metrics summary: the §6.4 check over the whole
		// session, exploration included.
		overheadPct := 0.0
		if ws.ClockUs > 0 {
			overheadPct = ws.ProfOverheadUs / ws.ClockUs * 100
		}
		fmt.Fprintf(stdout, "\ntelemetry summary: %d batches (%d exploration trials), %.0f us simulated\n",
			ws.Batches, ws.Trials, ws.ClockUs)
		fmt.Fprintf(stdout, "profiling overhead: %.0f us = %.3f%% of total simulated time\n",
			ws.ProfOverheadUs, overheadPct)
		fmt.Fprintf(stdout, "profile index: %d entries, hit rate %.2f\n", ws.Ix.Len(), ws.Ix.HitRate())

		if traceOut != "" {
			if err := writeFile(traceOut, tel.Trace.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "session trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", traceOut)
		}
		if eventsFile != nil {
			n := tel.Events.Count()
			if err := eventsFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "event log written to %s (%d records)\n", eventsOut, n)
		}
		if metrics {
			fmt.Fprintln(stdout)
			if err := tel.Metrics.WriteProm(stdout); err != nil {
				return err
			}
		}
	}
	if timeline != "" {
		if err := writeFile(timeline, ws.Runner.Dev.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "last-batch timeline written to %s (open in chrome://tracing)\n", timeline)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
