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

// TestBadShapeExitsTwo: a bad model, level or fabric is a usage error that
// names the valid choices, reported before any model is built.
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
		{"dispatcher", []string{"-model", "sublstm", "-dispatcher", "cuda"}, "valid: astra, native, tf, xla, cudnn"},
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
