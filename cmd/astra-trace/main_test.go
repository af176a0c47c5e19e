package main

import (
	"bytes"
	"strings"
	"testing"
)

func runTrace(args ...string) (string, string, int) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestUnknownShowListsOptionsAndFails(t *testing.T) {
	stdout, stderr, code := runTrace("-model", "scrnn", "-tiny", "-show", "bogus")
	if code == 0 {
		t.Fatal("unknown -show exited zero")
	}
	if stdout != "" {
		t.Fatalf("unknown -show produced output:\n%s", stdout)
	}
	for _, name := range showNames {
		if !strings.Contains(stderr, name) {
			t.Fatalf("error message does not list %q: %s", name, stderr)
		}
	}
}

func TestUnknownModelFails(t *testing.T) {
	_, stderr, code := runTrace("-model", "nosuchmodel")
	if code == 0 {
		t.Fatal("unknown model exited zero")
	}
	if !strings.Contains(stderr, "nosuchmodel") {
		t.Fatalf("error does not name the model: %s", stderr)
	}
}

// TestNegativeBatchFails: a negative -batch is a build error naming the
// value, not a panic in the tensor allocator.
func TestNegativeBatchFails(t *testing.T) {
	stdout, stderr, code := runTrace("-model", "scrnn", "-batch", "-3")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("failed build printed output:\n%s", stdout)
	}
	if !strings.Contains(stderr, "batch -3 out of range") {
		t.Fatalf("error does not name the batch: %s", stderr)
	}
}

func TestValidShows(t *testing.T) {
	// Every documented -show value must succeed on a tiny model. (The
	// convergence view runs a full exploration; tiny keeps it fast.)
	for _, name := range showNames {
		stdout, stderr, code := runTrace("-model", "sublstm", "-tiny", "-show", name)
		if code != 0 {
			t.Fatalf("-show %s: exit %d, stderr: %s", name, code, stderr)
		}
		if stdout == "" {
			t.Fatalf("-show %s produced no output", name)
		}
	}
}
