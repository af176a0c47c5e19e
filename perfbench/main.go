// Command perfbench measures the host cost of the Astra reproduction: the
// wall time and heap the program spends per exploration trial, per wired
// data-parallel step and per service job. Simulated microseconds are the
// paper's output; the benchmark checks that they repeat exactly and never
// reports them as cost.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics of a traced run. See
// README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // length of the timed phase
	trace    bool
	spansDir string // where a traced run writes its spans; nowhere when empty
	// tiny shrinks a workload to test scale: tiny models and short
	// segments. Only tests set it.
	tiny bool
}

var workloads = map[string]func(config) (*report, error){
	"explore-cold": runExploreCold,
	"wired-dp":     runWiredDP,
	"serve-mix":    runServeMix,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	spansDir := fs.String("spans-dir", "", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *workload, workloadNames())
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	rep, err := fn(config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spansDir: *spansDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s: %s\n", *workload, rep.digest)
	fmt.Fprintln(stdout, string(line))
	return 0
}
