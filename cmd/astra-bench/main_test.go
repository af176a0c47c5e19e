package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONOutAndBaseline(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var stdout, stderr strings.Builder
	code := run([]string{"-experiment", "table1", "-quick", "-json-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "table1" {
		t.Fatalf("report experiments: %+v", rep.Experiments)
	}
	if rep.Experiments[0].WallNs <= 0 || rep.Experiments[0].Allocs == 0 {
		t.Fatalf("empty measurements: %+v", rep.Experiments[0])
	}
	// -json-out reports carry analyzer attribution, not just wall time.
	if rep.Attribution == nil {
		t.Fatal("report has no attribution block")
	}
	if rep.Attribution.Batches == 0 || rep.Attribution.AnalyzedUs <= 0 {
		t.Fatalf("empty attribution: %+v", rep.Attribution)
	}
	if len(rep.Attribution.PathBlameUs) == 0 || len(rep.Attribution.IdleUs) == 0 {
		t.Fatalf("attribution missing blame/taxonomy: %+v", rep.Attribution)
	}

	// A fresh run held against its own numbers is within tolerance.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-experiment", "table1", "-quick", "-baseline", out, "-tolerance", "5"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("self-baseline exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no regression") {
		t.Errorf("stderr missing verdict: %s", stderr.String())
	}
}

func TestBaselineDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// A baseline claiming table1 once ran in 1ns with 1 alloc: any real run
	// regresses against it.
	rep := BenchReport{Experiments: []ExperimentBench{{ID: "table1", WallNs: 1, Allocs: 1}}}
	raw, _ := json.Marshal(rep)
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-experiment", "table1", "-quick", "-baseline", base}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (regression); stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "REGRESSION") {
		t.Errorf("stderr missing REGRESSION: %s", stderr.String())
	}
}

func TestCompareBaselineSkipsMissingExperiments(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	rep := BenchReport{Experiments: []ExperimentBench{{ID: "other", WallNs: 1, Allocs: 1}}}
	raw, _ := json.Marshal(rep)
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cur := BenchReport{Experiments: []ExperimentBench{{ID: "table1", WallNs: 1 << 40, Allocs: 1 << 30}}}
	regs, err := compareBaseline(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestListExits(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout.String(), "table2") {
		t.Errorf("list output: %s", stdout.String())
	}
}

// TestUnknownExperimentExitsTwo: every ID is checked before any runs, so
// a typo after a long experiment costs nothing and prints no table.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-experiment", "table1,nosuch", "-quick"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed output before rejecting the ID:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nosuch" (valid: `) || !strings.Contains(stderr.String(), "table1") {
		t.Fatalf("stderr does not name the valid IDs: %s", stderr.String())
	}
}

// TestToleranceOutOfRangeExitsTwo: a NaN tolerance makes every baseline
// comparison false (so -baseline passes anything) and a negative one fails
// every experiment, so both are rejected before any experiment runs.
func TestToleranceOutOfRangeExitsTwo(t *testing.T) {
	for _, tol := range []string{"-0.1", "NaN", "Inf", "-Inf"} {
		var stdout, stderr strings.Builder
		code := run([]string{"-experiment", "table1", "-quick", "-tolerance", tol}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-tolerance %s: exit %d, want 2; stderr: %s", tol, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-tolerance %s: printed output before rejecting it:\n%s", tol, stdout.String())
		}
		if !strings.Contains(stderr.String(), "out of range (valid: a finite fraction, 0 or more)") {
			t.Errorf("-tolerance %s: stderr does not name the valid range: %s", tol, stderr.String())
		}
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-experiment", "table1", "-quick", "-tolerance", "0"}, &stdout, &stderr); code != 0 {
		t.Errorf("-tolerance 0: exit %d, want 0; stderr: %s", code, stderr.String())
	}
}
