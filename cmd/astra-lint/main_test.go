package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureRoot builds a throwaway module with one dirty package covering
// every rule family: a determinism violation, a lock-discipline violation
// and a hot-path heap allocation, plus one suppressed finding.
func fixtureRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fix\n\ngo 1.22\n")
	write("pkg/bad.go", `package pkg

import (
	"fmt"
	"sync"
	"time"
)

var mu sync.Mutex
var ch = make(chan int)

func Stamp() int64 { return time.Now().UnixNano() }

func Blocked() {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}

//astra:hotpath
func Hot(n int) string {
	return fmt.Sprintf("%d", n)
}

func Quiet(m map[string]int) int {
	s := 0
	for _, v := range m { // lint:ok map-range commutative sum
		s += v
	}
	return s
}
`)
	return root
}

// golden is the expected text rendering of the fixture, root-relative and
// in canonical order. Serial and parallel runs must both produce exactly
// these bytes.
const golden = `pkg/bad.go:12:29: [time-now] time.Now breaks replay; use the session's simulated clock
pkg/bad.go:16:2: [lockcheck] mu held across channel send in Blocked; release the lock before blocking
pkg/bad.go:22:27: [escape] n escapes to heap in hotpath function Hot
3 finding(s)
`

func TestGoldenText(t *testing.T) {
	root := fixtureRoot(t)
	var out, errOut strings.Builder
	code := run([]string{"-root", root, "-force", "pkg"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if out.String() != golden {
		t.Errorf("got:\n%s\nwant:\n%s", out.String(), golden)
	}
	if strings.Contains(out.String(), root) {
		t.Errorf("output leaks absolute path: %s", out.String())
	}
}

func TestGoldenJSON(t *testing.T) {
	root := fixtureRoot(t)
	var out, errOut strings.Builder
	code := run([]string{"-root", root, "-force", "-json", "pkg"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		`"file": "pkg/bad.go"`,
		`"rule": "time-now"`,
		`"rule": "lockcheck"`,
		`"rule": "escape"`,
		`"line": 12`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("JSON missing %s:\n%s", want, got)
		}
	}
	if strings.Contains(got, "map-range") {
		t.Errorf("suppressed finding leaked into JSON:\n%s", got)
	}
}

func TestParallelByteIdentical(t *testing.T) {
	root := fixtureRoot(t)
	outputs := make([]string, 0, 3)
	for _, par := range []string{"1", "2", "0"} {
		var out, errOut strings.Builder
		code := run([]string{"-root", root, "-force", "-parallel", par, "pkg"}, &out, &errOut)
		if code != 1 {
			t.Fatalf("-parallel %s: exit %d; stderr: %s", par, code, errOut.String())
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Errorf("parallel output differs from serial:\n%q\n%q\n%q", outputs[0], outputs[1], outputs[2])
	}
}

func TestRuleSelection(t *testing.T) {
	root := fixtureRoot(t)
	var out, errOut strings.Builder
	code := run([]string{"-root", root, "-force", "-rules", "time-now", "pkg"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d; stderr: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "lockcheck") || !strings.Contains(out.String(), "time-now") {
		t.Errorf("-rules time-now output: %s", out.String())
	}

	out.Reset()
	if code := run([]string{"-root", root, "-rules", "nope", "pkg"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown rule: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown rule") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

func TestScopedRunSkipsOutOfScopePackage(t *testing.T) {
	root := fixtureRoot(t)
	// Without -force, pkg/ is outside every scoped rule; only the
	// annotation-driven escape rule (and the suppression meta-rule) apply.
	var out, errOut strings.Builder
	code := run([]string{"-root", root, "pkg"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d; stderr: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "time-now") || strings.Contains(out.String(), "lockcheck") {
		t.Errorf("scoped rules ran outside their scope: %s", out.String())
	}
	if !strings.Contains(out.String(), "[escape]") {
		t.Errorf("annotation-driven rule missing: %s", out.String())
	}
}

func TestListCatalog(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, rule := range []string{"time-now", "wall-clock", "env-read", "global-rand", "map-range", "lockcheck", "escape"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("catalog missing %s:\n%s", rule, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	root := t.TempDir()
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "missing"}, &out, &errOut); code != 2 {
		t.Fatalf("missing go.mod: exit %d, want 2", code)
	}
	if code := run([]string{"-nosuchflag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

// TestInjectedEscapeFailsGate: in a module whose one annotated function
// has a justified pool-growth escape, astra-lint passes; add one
// allocation to that function and it must exit 1 naming it.
func TestInjectedEscapeFailsGate(t *testing.T) {
	root := t.TempDir()
	pool := filepath.Join(root, "internal", "pool")
	if err := os.MkdirAll(pool, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fix\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package pool

type Rec struct{ N int }

var sink *Rec
var leak []int

//astra:hotpath
func Grow() *Rec {
	// lint:ok escape pool growth, amortized across reuse
	r := &Rec{}
	sink = r
	INJECT
	return r
}
`
	lintWith := func(inject string) (int, string) {
		t.Helper()
		code := strings.Replace(src, "INJECT", inject, 1)
		if err := os.WriteFile(filepath.Join(pool, "pool.go"), []byte(code), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		return run([]string{"-root", root}, &out, &errOut), out.String() + errOut.String()
	}
	if code, out := lintWith("_ = leak"); code != 0 {
		t.Fatalf("clean module: exit %d\n%s", code, out)
	}
	code, out := lintWith("leak = make([]int, r.N)")
	if code != 1 {
		t.Fatalf("exit %d after injection, want 1:\n%s", code, out)
	}
	want := "internal/pool/pool.go:13:13: [escape] make([]int, r.N) escapes to heap in hotpath function Grow"
	if !strings.Contains(out, want) {
		t.Errorf("failure does not name the injected escape:\n%s", out)
	}
}

// TestRepoIsClean lints the real repository exactly as `make lint` does:
// every rule over every internal/ and cmd/ package, zero unsuppressed
// findings.
func TestRepoIsClean(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-root", "../.."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("repository has findings (exit %d):\n%s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output: %s", out.String())
	}
}
