package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astra/internal/job"
	"astra/internal/obs"
	"astra/internal/wire"
)

// genEvents records a small instrumented session (explore + two wired
// batches) and writes its JSONL event log to dir.
func genEvents(t *testing.T, dir string, workers int, fabric string) string {
	t.Helper()
	shape, err := job.Shape{Model: "sublstm", Scale: job.Tiny, Batch: 4, Level: "FK", Workers: workers, Fabric: fabric}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := wire.NewSession(shape.Build(), shape.SessionConfig())
	tel := obs.NewTelemetry()
	var sink bytes.Buffer
	tel.SetEventSink(&sink)
	s.Instrument(tel)
	s.Explore()
	s.Step()
	s.Step()
	path := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(path, sink.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestFlagValidation: malformed perturbation specs and misuse must error
// with the valid choices named, never silently no-op.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, 1, "")
	cases := []struct {
		args     []string
		code     int
		inStderr string
	}{
		{[]string{}, 2, "no event log"},
		{[]string{"-events", events, "stray.jsonl"}, 2, "unexpected arguments"},
		{[]string{"-events", events, "-speedup", "class=gemm"}, 2, "both class= and factor= are required"},
		{[]string{"-events", events, "-speedup", "class=bogus,factor=2"}, 2, "unknown kernel class"},
		{[]string{"-events", events, "-speedup", "class=gemm,factor=2,turbo=yes"}, 2, "unknown key"},
		{[]string{"-events", events, "-speedup", "class=gemm,factor=0"}, 2, "must be positive"},
		{[]string{"-events", events, "-speedup", "class=gemm,factor=nope"}, 2, "not a number"},
		{[]string{"-events", events, "-matrix", "-speedup", "class=gemm,factor=2"}, 2, "-matrix builds its own scenario grid"},
		{[]string{"-events", events, "-matrix", "-workers-list", "1,zero"}, 2, "bad -workers-list entry"},
		{[]string{"-events", events, "-matrix", "-workers-list", "0"}, 2, "bad -workers-list entry"},
		{[]string{"-events", events, "-matrix", "-fabrics", ","}, 2, "at least one fabric"},
		{[]string{"-events", events, "-check", "-tolerance", "-5"}, 2, "-tolerance -5 out of range (valid: a finite percent, 0 or more)"},
		{[]string{"-events", events, "-check", "-tolerance", "NaN"}, 2, "-tolerance NaN out of range (valid: a finite percent, 0 or more)"},
		{[]string{"-events", events, "-fabric", "infiniband"}, 1, "unknown fabric"},
		{[]string{"-events", events, "-workers", "4"}, 1, "single-GPU"},
		{[]string{"-events", filepath.Join(dir, "missing.jsonl")}, 1, "missing.jsonl"},
	}
	for _, tc := range cases {
		_, stderr, code := runCLI(t, tc.args...)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr)
		}
		if !strings.Contains(stderr, tc.inStderr) {
			t.Errorf("%v: stderr %q missing %q", tc.args, stderr, tc.inStderr)
		}
	}
}

// TestIdentityCLI: the no-perturbation invocation reports a 1.000x
// speedup with predicted == recorded.
func TestIdentityCLI(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, 1, "")
	stdout, stderr, code := runCLI(t, "-events", events)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "scenario: identity") || !strings.Contains(stdout, "(1.000x)") {
		t.Fatalf("identity output:\n%s", stdout)
	}
}

// TestSpeedupCLI: a GEMM speedup on a GEMM-heavy model predicts a win and
// reports the blame table.
func TestSpeedupCLI(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, 1, "")
	stdout, stderr, code := runCLI(t, "-events", events, "-speedup", "class=gemm,factor=2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "scenario: gemm x2") || !strings.Contains(stdout, "critical-path blame") {
		t.Fatalf("speedup output:\n%s", stdout)
	}
}

// TestMatrixParallelByteIdentical: matrix mode is deterministic across
// -parallel, and JSON mode emits every scenario.
func TestMatrixParallelByteIdentical(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, 2, "pcie3")
	args := []string{"-events", events, "-matrix", "-fabrics", "pcie3,nvlink1", "-workers-list", "1,2,4", "-json"}
	out1, stderr, code := runCLI(t, append(args, "-parallel", "1")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	out4, _, code := runCLI(t, append(args, "-parallel", "4")...)
	if code != 0 {
		t.Fatalf("parallel 4 exit %d", code)
	}
	if out1 != out4 {
		t.Fatal("matrix output differs between -parallel 1 and -parallel 4")
	}
	for _, want := range []string{`"identity"`, `"fabric=nvlink1+workers=4"`, `"fabric=pcie3+workers=1"`} {
		if !strings.Contains(out1, want) {
			t.Fatalf("matrix JSON missing %s", want)
		}
	}
}

// TestCheckCLI: -check on a fresh multi-worker recording passes within the
// default tolerance and prints the cell table.
func TestCheckCLI(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, 2, "pcie3")
	stdout, stderr, code := runCLI(t, "-events", events,
		"-matrix", "-fabrics", "pcie3,nvlink1", "-workers-list", "1,2,4", "-check")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, stderr, stdout)
	}
	if !strings.Contains(stdout, "all 7 cells within tolerance") {
		t.Fatalf("check output:\n%s", stdout)
	}
	// Bucket scenarios are replay-only; -check must refuse them.
	_, stderr, code = runCLI(t, "-events", events, "-bucket", "2", "-check")
	if code != 1 || !strings.Contains(stderr, "replay-only") {
		t.Fatalf("bucket -check: exit %d, stderr: %s", code, stderr)
	}
}
