package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runCLI(args ...string) (string, string, int) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestBadShapeExitsTwo: a bad model, level, fabric, batch or worker count,
// and a jitter, step count or drift batch out of range, is a usage error
// that names the valid choices, reported before any model is built.
func TestBadShapeExitsTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"level", []string{"-model", "sublstm", "-level", "bogus"}, "valid levels: All, F, FK, FKS"},
		{"fabric", []string{"-model", "sublstm", "-workers", "2", "-fabric", "token-ring"}, "valid fabrics: nvlink1, pcie3"},
		{"model", []string{"-model", "resnet50"}, "valid models: attlstm, gnmt, milstm, rhn, scrnn, stackedlstm, sublstm"},
		{"workers", []string{"-model", "sublstm", "-workers", "0"}, "workers 0 out of range"},
		{"zero batch", []string{"-model", "scrnn", "-batch", "0", "-steps", "1"}, "batch 0 out of range (valid: 1 or more)"},
		{"negative batch", []string{"-model", "scrnn", "-batch", "-2"}, "batch -2 out of range (valid: 1 or more)"},
		{"dispatcher", []string{"-model", "sublstm", "-dispatcher", "cuda"}, "valid: astra, native, tf, xla, cudnn"},
		{"jitter above range", []string{"-model", "scrnn", "-jitter", "5"}, "jitter 5 out of range (valid: 0 up to but not including 1"},
		{"jitter at bound", []string{"-model", "scrnn", "-jitter", "1"}, "jitter 1 out of range (valid: 0 up to but not including 1"},
		{"negative jitter", []string{"-model", "scrnn", "-jitter", "-0.5"}, "jitter -0.5 out of range (valid: 0 up to but not including 1"},
		{"NaN jitter", []string{"-model", "scrnn", "-jitter", "NaN"}, "jitter NaN out of range (valid: 0 up to but not including 1"},
		{"negative steps", []string{"-model", "scrnn", "-steps", "-2"}, "steps -2 out of range (valid: 0 or more)"},
		{"negative drift-at", []string{"-model", "scrnn", "-drift-at", "-4"}, "drift-at -4 out of range (valid: 0 or more, 0 = no drift)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Fatalf("usage error printed output:\n%s", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q does not name %q", stderr, tc.want)
			}
		})
	}
}

// TestSmallRunGolden pins a two-worker NVLink exploration's report byte
// for byte.
func TestSmallRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/scrnn_f_2nvlink1.golden")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI("-model", "scrnn", "-batch", "2", "-level", "F", "-steps", "1", "-workers", "2", "-fabric", "nvlink1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != string(want) {
		t.Fatalf("stdout differs from testdata/scrnn_f_2nvlink1.golden:\n%s", stdout)
	}
}

// TestCuDNNLongTailFails: a model cuDNN has no kernels for is a run
// failure, not a usage error.
func TestCuDNNLongTailFails(t *testing.T) {
	_, stderr, code := runCLI("-model", "scrnn", "-batch", "2", "-dispatcher", "cudnn", "-steps", "1")
	if code != 1 || !strings.Contains(stderr, "cuDNN has no kernels for scrnn") {
		t.Fatalf("exit %d, stderr %q; want 1 naming the long-tail model", code, stderr)
	}
}
