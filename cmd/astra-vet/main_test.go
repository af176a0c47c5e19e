package main

import (
	"strings"
	"testing"
)

func TestBuildMatrix(t *testing.T) {
	all, err := buildMatrix("all", "all", "1,2,4")
	if err != nil {
		t.Fatal(err)
	}
	// 7 models × 4 presets × 3 worker counts.
	if len(all) != 7*4*3 {
		t.Fatalf("full matrix has %d cells, want %d", len(all), 7*4*3)
	}
	one, err := buildMatrix("scrnn", "Astra_F", "2")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].model != "scrnn" || one[0].workers != 2 {
		t.Fatalf("single cell: got %+v", one)
	}
	for _, bad := range [][3]string{
		{"nosuch", "all", "1"},
		{"scrnn", "nosuch", "1"},
		{"scrnn", "Astra_F", "zero"},
		{"scrnn", "Astra_F", "0"},
	} {
		if _, err := buildMatrix(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("buildMatrix(%q, %q, %q) accepted bad input", bad[0], bad[1], bad[2])
		}
	}
}

func TestVetOneUnknownModel(t *testing.T) {
	r := vetOne(combo{model: "nosuch"}, 16)
	if r.OK() {
		t.Fatal("unknown model verified clean")
	}
}

func TestRunSingleCombination(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-model", "scrnn", "-preset", "Astra_F", "-workers", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	got := out.String()
	for _, want := range []string{"ok  ", "scrnn", "PASS", "configuration(s) checked, 0 finding(s)"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-model", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown model: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown model") {
		t.Errorf("stderr: %s", errOut.String())
	}
	if code := run([]string{"-nosuchflag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	// A batch below 1 is rejected before any model is built.
	for _, b := range []string{"0", "-2"} {
		out.Reset()
		errOut.Reset()
		code := run([]string{"-model", "scrnn", "-preset", "Astra_F", "-batch", b}, &out, &errOut)
		if code != 2 || out.Len() != 0 {
			t.Fatalf("-batch %s: exit %d, want 2 and no report; stdout %q", b, code, out.String())
		}
		if want := "batch " + b + " out of range (valid: 1 or more)"; !strings.Contains(errOut.String(), want) {
			t.Errorf("-batch %s: stderr %q does not name %q", b, errOut.String(), want)
		}
	}
}

// stripElapsed removes the per-combination wall-clock column — the only
// part of the report that legitimately varies between runs.
func stripElapsed(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.LastIndex(line, " "); i >= 0 && strings.Contains(line, "configs=") {
			line = line[:i]
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func TestOutputOrderStableAcrossJobs(t *testing.T) {
	args := []string{"-model", "scrnn", "-workers", "1,2,4"}
	var serial, par strings.Builder
	if code := run(append([]string{"-j", "1"}, args...), &serial, &serial); code != 0 {
		t.Fatalf("-j 1 exit %d:\n%s", code, serial.String())
	}
	if code := run(append([]string{"-j", "4"}, args...), &par, &par); code != 0 {
		t.Fatalf("-j 4 exit %d:\n%s", code, par.String())
	}
	if stripElapsed(serial.String()) != stripElapsed(par.String()) {
		t.Errorf("output differs between -j 1 and -j 4:\n--- j=1 ---\n%s\n--- j=4 ---\n%s",
			serial.String(), par.String())
	}
}
