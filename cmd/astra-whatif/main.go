// Command astra-whatif is the trace-replay what-if engine (internal/whatif)
// as a tool: it loads a recorded run's JSONL event log — the file astra-run
// writes with -events-out — and predicts how the run would have performed
// under a hypothetical change, without re-running exploration.
//
// Usage:
//
//	astra-whatif -events run.jsonl -speedup class=gemm,factor=2
//	astra-whatif -events run.jsonl -fabric nvlink1 -workers 8
//	astra-whatif -events run.jsonl -launch-overhead 0.5 -bucket 2
//	astra-whatif -events run.jsonl -matrix -fabrics pcie3,nvlink1 -workers-list 1,2,4,8
//	astra-whatif -events run.jsonl -matrix ... -check -tolerance 5
//
// -check validates every scenario against ground truth: the session is
// rebuilt from the log's metadata, re-explored, and each scenario
// re-simulated with the real simulator; predictions must land within
// -tolerance percent (the identity scenario must be exact). Output is
// byte-identical for a given log regardless of -parallel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"astra/internal/obs"
	"astra/internal/whatif"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astra-whatif", flag.ContinueOnError)
	fs.SetOutput(stderr)
	events := fs.String("events", "", "JSONL event log to replay (see astra-run -events-out)")
	var pert whatif.Perturbation
	fs.Func("speedup", "class speedup spec `class=gemm,factor=2` (repeatable)", func(spec string) error {
		class, factor, err := whatif.ParseSpeedup(spec)
		if err != nil {
			return err
		}
		if pert.Speedups == nil {
			pert.Speedups = map[string]float64{}
		}
		pert.Speedups[class] = factor
		return nil
	})
	fs.StringVar(&pert.Fabric, "fabric", "", "swap the gradient-exchange fabric (pcie3, nvlink1)")
	fs.IntVar(&pert.Workers, "workers", 0, "re-size the data-parallel ring (1 removes the exchange)")
	fs.Float64Var(&pert.LaunchFactor, "launch-overhead", 0, "scale the CPU kernel-launch overhead (0.5 = twice as fast)")
	fs.Float64Var(&pert.BucketFactor, "bucket", 0, "scale the gradient-bucket size (replay-only; rejected by -check)")
	matrix := fs.Bool("matrix", false, "scenario-matrix mode: identity plus every -fabrics x -workers-list cell")
	fabricsCSV := fs.String("fabrics", "pcie3,nvlink1", "comma-separated fabrics for -matrix")
	workersCSV := fs.String("workers-list", "1,2,4,8", "comma-separated ring sizes for -matrix")
	check := fs.Bool("check", false, "validate predictions against ground-truth re-simulation")
	tol := fs.Float64("tolerance", 5, "-check failure threshold, percent")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text")
	par := fs.Int("parallel", 1, "prediction goroutines; <1 one per CPU (output is byte-identical either way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "astra-whatif: unexpected arguments %q; the event log is passed with -events\n", fs.Args())
		return 2
	}
	if *events == "" {
		fmt.Fprintln(stderr, "astra-whatif: no event log; pass -events run.jsonl (see astra-run -events-out)")
		return 2
	}
	if *tol < 0 || math.IsNaN(*tol) || math.IsInf(*tol, 0) {
		fmt.Fprintf(stderr, "astra-whatif: -tolerance %g out of range (valid: a finite percent, 0 or more)\n", *tol)
		return 2
	}
	if *matrix && !pert.Identity() {
		fmt.Fprintln(stderr, "astra-whatif: -matrix builds its own scenario grid; drop -speedup/-fabric/-workers/-launch-overhead/-bucket or drop -matrix")
		return 2
	}

	var scenarios []whatif.Scenario
	if *matrix {
		fabrics := splitCSV(*fabricsCSV)
		if len(fabrics) == 0 {
			fmt.Fprintln(stderr, "astra-whatif: -matrix needs at least one fabric in -fabrics")
			return 2
		}
		var workers []int
		for _, s := range splitCSV(*workersCSV) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				fmt.Fprintf(stderr, "astra-whatif: bad -workers-list entry %q: want positive integers\n", s)
				return 2
			}
			workers = append(workers, n)
		}
		if len(workers) == 0 {
			fmt.Fprintln(stderr, "astra-whatif: -matrix needs at least one ring size in -workers-list")
			return 2
		}
		scenarios = whatif.MatrixScenarios(fabrics, workers)
	} else {
		scenarios = []whatif.Scenario{whatif.NewScenario(pert)}
	}

	f, err := os.Open(*events)
	if err != nil {
		fmt.Fprintln(stderr, "astra-whatif:", err)
		return 1
	}
	evs, err := obs.ReadTrialEvents(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "astra-whatif: %s: %v\n", *events, err)
		return 1
	}

	if *check {
		rep, err := whatif.Check(evs, scenarios, *tol, *par)
		if err != nil {
			fmt.Fprintln(stderr, "astra-whatif:", err)
			return 1
		}
		if *jsonOut {
			if code := emitJSON(stdout, stderr, rep); code != 0 {
				return code
			}
		} else {
			whatif.WriteCheckReport(stdout, rep)
		}
		if !rep.OK() {
			return 1
		}
		return 0
	}

	preds, err := whatif.PredictMatrix(evs, scenarios, *par)
	if err != nil {
		fmt.Fprintln(stderr, "astra-whatif:", err)
		return 1
	}
	if *jsonOut {
		return emitJSON(stdout, stderr, preds)
	}
	if len(preds) == 1 && preds[0] != nil {
		whatif.WritePrediction(stdout, preds[0])
		return 0
	}
	whatif.WritePredictions(stdout, preds)
	return 0
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func emitJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, "astra-whatif:", err)
		return 1
	}
	return 0
}
