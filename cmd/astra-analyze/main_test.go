package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/job"
	"astra/internal/models"
	"astra/internal/obs"
	"astra/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// genEvents runs a small instrumented session (explore to convergence plus
// two wired batches) and writes its JSONL event log to dir. The simulated
// clock makes the log — and therefore every golden below — byte-stable.
// The model is wide enough to be GPU-bound (so kernel-class effects show up
// in wall time) while the FK preset keeps exploration short.
func genEvents(t *testing.T, dir string, faults gpusim.FaultConfig, name string) string {
	t.Helper()
	build, ok := models.Get("sublstm")
	if !ok {
		t.Fatal("model sublstm")
	}
	mcfg := models.Config{Batch: 16, SeqLen: 3, Hidden: 1024, Embed: 128,
		Vocab: 100, Embedding: true, Backward: true}
	dev := gpusim.P100()
	dev.Faults = faults
	s := wire.NewSession(build(mcfg), wire.SessionConfig{
		Device:  dev,
		Options: enumerate.PresetOptions(enumerate.PresetF),
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
	})
	tel := obs.NewTelemetry()
	var sink bytes.Buffer
	tel.SetEventSink(&sink)
	s.Instrument(tel)
	s.Explore()
	s.Step()
	s.Step()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, sink.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// genCommEvents is genEvents for a two-worker data-parallel session over
// pcie3, so the overlap golden sees real communication kernels.
func genCommEvents(t *testing.T, dir, name string) string {
	t.Helper()
	shape := job.Shape{Model: "sublstm", Scale: job.Tiny, Batch: 2, Level: "FK", Workers: 2, Fabric: "pcie3"}
	s := wire.NewSession(shape.Build(), shape.SessionConfig())
	tel := obs.NewTelemetry()
	var sink bytes.Buffer
	tel.SetEventSink(&sink)
	s.Instrument(tel)
	s.Explore()
	s.Step()
	s.Step()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, sink.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes run() and returns (stdout, stderr, exit code).
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/astra-analyze -run TestGolden -update)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (regenerate with -update if the change is intended)\ngot:\n%s", path, got)
	}
}

func TestGoldenReports(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, gpusim.FaultConfig{}, "run.jsonl")
	for _, report := range []string{"path", "util", "overlap", "converge"} {
		report := report
		t.Run(report, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "-events", events, "-report", report, "-check")
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			checkGolden(t, report+".golden", stdout)
		})
	}
	t.Run("json", func(t *testing.T) {
		stdout, stderr, code := runCLI(t, "-events", events, "-report", "all", "-json")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		checkGolden(t, "run.json.golden", stdout)
	})
	t.Run("overlap-comm", func(t *testing.T) {
		comm := genCommEvents(t, dir, "comm.jsonl")
		stdout, stderr, code := runCLI(t, "-events", comm, "-report", "overlap", "-check")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		if !strings.Contains(stdout, "fabric pcie3") {
			t.Fatalf("overlap report missing fabric:\n%s", stdout)
		}
		checkGolden(t, "overlap_comm.golden", stdout)
	})
}

func TestGoldenDiff(t *testing.T) {
	dir := t.TempDir()
	a := genEvents(t, dir, gpusim.FaultConfig{}, "a.jsonl")
	// Count run A's exploration trials from its own log so the throttle
	// window in run B covers exactly the wired batches.
	f, err := os.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadTrialEvents(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	trials := 0
	for _, ev := range evs {
		if ev.Phase == "explore" {
			trials++
		}
	}
	b := genEvents(t, dir, gpusim.FaultConfig{
		ThrottleStartBatch: trials + 1,
		ThrottleBatches:    2,
		ThrottleFactor:     3,
		ThrottleClass:      "gemm",
	}, "b.jsonl")
	stdout, stderr, code := runCLI(t, "-diff", "-check", a, b)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "blame: gemm") {
		t.Fatalf("diff did not blame gemm:\n%s", stdout)
	}
	checkGolden(t, "diff.golden", stdout)
}

func TestParallelByteIdentical(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, gpusim.FaultConfig{}, "run.jsonl")
	for _, mode := range [][]string{
		{"-report", "all"},
		{"-report", "all", "-json"},
	} {
		out1, _, code1 := runCLI(t, append([]string{"-events", events, "-parallel", "1"}, mode...)...)
		out4, _, code4 := runCLI(t, append([]string{"-events", events, "-parallel", "4"}, mode...)...)
		if code1 != 0 || code4 != 0 {
			t.Fatalf("exit codes %d/%d for %v", code1, code4, mode)
		}
		if out1 != out4 {
			t.Fatalf("output differs between -parallel 1 and 4 for %v", mode)
		}
	}
}

func TestCheckOnly(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, gpusim.FaultConfig{}, "run.jsonl")
	stdout, stderr, code := runCLI(t, "-events", events, "-check")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "ok: ") || strings.Contains(stdout, "critical path —") {
		t.Fatalf("-check alone should print only the audit line:\n%s", stdout)
	}
}

func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(t, dir, gpusim.FaultConfig{}, "run.jsonl")
	cases := []struct {
		args     []string
		code     int
		inStderr string
	}{
		{[]string{"-events", events, "-report", "bogus"}, 2, "valid: path, util, overlap, converge, all"},
		{[]string{}, 2, "no event log"},
		{[]string{"-diff", events}, 2, "exactly two logs"},
		{[]string{"-events", filepath.Join(dir, "missing.jsonl")}, 1, "missing.jsonl"},
		{[]string{"-events", events, "stray.jsonl"}, 2, "unexpected arguments"},
		{[]string{events, events}, 2, "analyze one at a time"},
		{[]string{"-diff", "-report", "util", events, events}, 2, "-report cannot be combined with -diff"},
		{[]string{"-diff", "-events", events, events, events}, 2, "positional arguments, not -events"},
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

func TestMalformedLog(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"batch\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "-events", bad)
	if code != 1 {
		t.Fatalf("exit %d for malformed log", code)
	}
	if !strings.Contains(stderr, "line 2") {
		t.Fatalf("error does not locate the bad line: %s", stderr)
	}
}
