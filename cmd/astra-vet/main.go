// Command astra-vet runs the plan verifier (internal/verify) standalone:
// for every requested model × preset × worker-count combination it
// enumerates the plan and proves the schedule-unit graph, every allocation
// strategy and one schedule per structurally distinct configuration safe —
// no cross-stream races, no wait-cycle deadlocks, no aliasing buffers, no
// fused chunk reading non-contiguous operands without a gather copy, and a
// gradient exchange that covers every gradient exactly once.
//
// Usage:
//
//	astra-vet                                  # all models × presets × {1,2,4} workers
//	astra-vet -model scrnn -preset Astra_all   # one combination
//	astra-vet -workers 2 -v                    # list every finding
//
// The exit status is 0 only when every combination verifies clean, so the
// command slots directly into CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"astra/internal/enumerate"
	"astra/internal/job"
	"astra/internal/models"
	"astra/internal/parallel"
	"astra/internal/verify"
)

// combo is one cell of the sweep matrix.
type combo struct {
	model   string
	preset  enumerate.Preset
	workers int
}

// result is one verified cell, kept in sweep order for deterministic output.
type result struct {
	combo
	report  *verify.Report
	elapsed time.Duration
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astra-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "all", "model to verify, or \"all\": "+strings.Join(models.Names(), ", "))
	preset := fs.String("preset", "all", "preset to verify, or \"all\": Astra_F, Astra_FK, Astra_FKS, Astra_all")
	workers := fs.String("workers", "1,2,4", "comma-separated data-parallel worker counts")
	batch := fs.Int("batch", 16, "mini-batch size")
	jobs := fs.Int("j", -1, "combinations verified concurrently; <1 means one per CPU")
	verbose := fs.Bool("v", false, "print every finding (default: first 5 per combination)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *batch < 1 {
		fmt.Fprintf(stderr, "astra-vet: batch %d out of range (valid: 1 or more)\n", *batch)
		return 2
	}

	combos, err := buildMatrix(*model, *preset, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "astra-vet: %v\n", err)
		return 2
	}

	// The matrix fans out on the order-preserving pool: results land in
	// sweep order regardless of -j, so the report below is byte-stable
	// across worker counts (only the elapsed column varies).
	results := make([]result, len(combos))
	parallel.ForEach(*jobs, len(combos), func(i int) error {
		start := time.Now()
		results[i] = result{combo: combos[i], report: vetOne(combos[i], *batch), elapsed: time.Since(start)}
		return nil
	})

	failed := 0
	totalConfigs, totalFindings := 0, 0
	for _, r := range results {
		totalConfigs += r.report.Configs
		totalFindings += len(r.report.Findings)
		status := "ok  "
		if !r.report.OK() {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%s %-12s %-10s workers=%d  configs=%-5d findings=%-3d %s\n",
			status, r.model, r.preset, r.workers, r.report.Configs,
			len(r.report.Findings), r.elapsed.Round(time.Millisecond))
		limit := 5
		if *verbose {
			limit = len(r.report.Findings)
		}
		for i, f := range r.report.Findings {
			if i >= limit {
				fmt.Fprintf(stdout, "      ... and %d more (rerun with -v)\n", len(r.report.Findings)-limit)
				break
			}
			fmt.Fprintf(stdout, "      %s\n", f)
		}
	}
	fmt.Fprintf(stdout, "\n%d combination(s), %d configuration(s) checked, %d finding(s)\n",
		len(results), totalConfigs, totalFindings)
	if failed > 0 {
		fmt.Fprintf(stdout, "FAIL: %d combination(s) with findings\n", failed)
		return 1
	}
	fmt.Fprintln(stdout, "PASS")
	return 0
}

// vetOne lowers one matrix cell's job shape and verifies its plan.
func vetOne(c combo, batch int) *verify.Report {
	level, _ := job.LevelOf(c.preset)
	sh, err := job.Shape{Model: c.model, Scale: job.Default, Batch: batch, Level: level, Workers: c.workers}.Normalize()
	if err != nil {
		r := &verify.Report{}
		r.Add("vet.shape", "", err.Error())
		return r
	}
	p := enumerate.Enumerate(sh.Build().G, sh.SessionConfig().Options)
	return verify.VerifyPlan(p, verify.Spec{Workers: c.workers})
}

// buildMatrix expands the flag selections into the sweep, in deterministic
// model → preset → workers order.
func buildMatrix(model, preset, workers string) ([]combo, error) {
	var ms []string
	if model == "all" {
		ms = models.Names()
	} else {
		if _, ok := models.Get(model); !ok {
			return nil, fmt.Errorf("unknown model %q (have %s)", model, strings.Join(models.Names(), ", "))
		}
		ms = []string{model}
	}
	ps := job.Presets()
	if preset != "all" {
		if _, ok := job.LevelOf(enumerate.Preset(preset)); !ok {
			return nil, fmt.Errorf("unknown preset %q", preset)
		}
		ps = []enumerate.Preset{enumerate.Preset(preset)}
	}
	var ws []int
	for _, s := range strings.Split(workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q", s)
		}
		ws = append(ws, w)
	}
	var out []combo
	for _, m := range ms {
		for _, p := range ps {
			for _, w := range ws {
				out = append(out, combo{model: m, preset: p, workers: w})
			}
		}
	}
	return out, nil
}
