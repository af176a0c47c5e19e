package escape

import (
	"reflect"
	"strings"
	"testing"

	"astra/internal/lint"
	"astra/internal/lint/linttest"
)

func rules(t *testing.T) []lint.Rule {
	t.Helper()
	rs, err := lint.ByNames([]string{"escape"})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// notes renders findings as "line: message" for compact assertions.
func notes(fs []lint.Finding) []string {
	out := []string{}
	for _, f := range fs {
		out = append(out, strings.TrimSpace(strings.SplitN(f.String(), ":", 2)[1]))
	}
	return out
}

func wantNotes(t *testing.T, fs []lint.Finding, want ...string) {
	t.Helper()
	got := notes(fs)
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Errorf("finding %d = %q, want it to contain %q", i, got[i], want[i])
		}
	}
}

func TestParseDiagnostics(t *testing.T) {
	out := `# astra/internal/gpusim
internal/gpusim/gpusim.go:301:7: &KernelRecord{} escapes to heap
internal/gpusim/gpusim.go:290:6: can inline (*Device).newRecord with cost 42
./runner.go:500:20: moved to heap: t0
internal/wire/runner.go:501:9: func literal escapes to heap
not-a-diagnostic line
internal/wire/runner.go:bad:9: x escapes to heap
internal/wire/runner.go:7:bad: x escapes to heap
`
	got := ParseDiagnostics(out)
	want := []Diag{
		{File: "internal/gpusim/gpusim.go", Line: 301, Col: 7, Msg: "&KernelRecord{} escapes to heap"},
		{File: "./runner.go", Line: 500, Col: 20, Msg: "moved to heap: t0"},
		{File: "internal/wire/runner.go", Line: 501, Col: 9, Msg: "func literal escapes to heap"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestSameTail(t *testing.T) {
	file := "/src/mod/internal/wire/runner.go"
	for printed, want := range map[string]bool{
		"./runner.go":                      true,
		"runner.go":                        true,
		"internal/wire/runner.go":          true,
		"../wire/runner.go":                true,
		"/src/mod/internal/wire/runner.go": true,
		"/elsewhere/wire/runner.go":        false,
		"internal/verify/runner.go":        false,
		"xrunner.go":                       false,
	} {
		if got := sameTail(file, printed); got != want {
			t.Errorf("sameTail(%q) = %v, want %v", printed, got, want)
		}
	}
}

func TestDocAndScope(t *testing.T) {
	r := rules(t)[0]
	if r.Doc() == "" {
		t.Error("empty Doc")
	}
	// Annotation-driven: the rule applies everywhere and gates on the
	// //astra:hotpath directive instead of a package scope.
	for _, rel := range []string{"internal/gpusim", "cmd/astra-bench", "pkg"} {
		if !r.Applies(rel) {
			t.Errorf("Applies(%q) = false", rel)
		}
	}
}

// TestFunctionsFindsAnnotatedSpans checks the rule's scope: annotated
// functions and methods, their extents, and their panic arguments.
func TestFunctionsFindsAnnotatedSpans(t *testing.T) {
	p := linttest.Load(t, `package pkg

type T struct{}

//astra:hotpath
func Plain() {}

// Method is annotated too.
//
//astra:hotpath
func (t *T) Method(n int) int {
	if n < 0 {
		panic("negative")
	}
	return 0
}

// Cold mentions //astra:hotpath in prose only.
func Cold() {}
`)
	hot := annotatedFuncs(p)
	if len(hot) != 2 || hot[0].name != "Plain" || hot[1].name != "(*T).Method" {
		t.Fatalf("annotated functions: %+v", hot)
	}
	m := hot[1]
	if m.body.from.Line != 11 || m.body.to.Line != 16 {
		t.Errorf("Method extent: lines %d-%d, want 11-16", m.body.from.Line, m.body.to.Line)
	}
	if len(m.panics) != 1 || m.panics[0].from.Line != 13 || m.panics[0].from.Column != 9 {
		t.Errorf("Method panic arguments: %+v", m.panics)
	}
}

// TestReportIntersectsSpansAndNormalizes: a note reaches the report only
// from inside an annotated function, and names that function.
func TestReportIntersectsSpansAndNormalizes(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg

type rec struct{ n int }

var sink *rec

//astra:hotpath
func (r *rec) Hot() {
	sink = &rec{n: r.n}
}

func Cold() {
	sink = &rec{}
}
`)
	wantNotes(t, fs, "9:9: [escape] &rec{...} escapes to heap in hotpath function (*rec).Hot")
}

func TestUnannotatedStaysSilent(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg
import "fmt"
func Cold(n int) string { return fmt.Sprintf("%d", n) }
`)
	if len(fs) != 0 {
		t.Fatalf("unannotated function flagged: %v", fs)
	}
}

func TestProseMentionDoesNotAnnotate(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg
import "fmt"
// Cold documents the //astra:hotpath marker without carrying it.
func Cold(n int) string { return fmt.Sprintf("%d", n) }
`)
	if len(fs) != 0 {
		t.Fatalf("prose mention treated as annotation: %v", fs)
	}
}

func TestFmtAndStringOps(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg
import "fmt"

var sink string

//astra:hotpath
func Hot(a, b string, n int) string {
	s := fmt.Sprintf("%d", n)
	sink = a + b
	return s
}
`)
	wantNotes(t, fs,
		"8:25: [escape] n escapes to heap",
		"9:11: [escape] a + b escapes to heap")
}

func TestConstantConcatIsFree(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg

var sink string

//astra:hotpath
func Hot() string {
	const pre = "a"
	sink = pre + "b" // constant-folded, no allocation
	return sink
}
`)
	if len(fs) != 0 {
		t.Fatalf("constant concat flagged: %v", fs)
	}
}

func TestCompositesAndMake(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg

type rec struct{ a, b int }

var (
	ints []int
	recs []*rec
)

//astra:hotpath
func Hot(n int) int {
	ints = []int{1, 2}
	ints = make([]int, n)
	recs = append(recs, &rec{a: 1}, new(rec))
	fixed := make([]int, 4) // constant size, does not escape: stack
	v := rec{a: 2}          // value struct literal: stack
	return fixed[0] + v.a
}
`)
	wantNotes(t, fs,
		"12:14: [escape] []int{...} escapes to heap",
		"13:13: [escape] make([]int, n) escapes to heap",
		"14:22: [escape] &rec{...} escapes to heap",
		"14:37: [escape] new(rec) escapes to heap")
}

func TestClosures(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg
import "slices"

var sink func() int

//astra:hotpath
func Hot(xs []int, n int) {
	slices.SortFunc(xs, func(a, b int) int { return a - b }) // non-capturing: free
	sink = func() int { return n }                           // captures n and escapes
}
`)
	wantNotes(t, fs, "9:9: [escape] func literal escapes to heap")
}

func TestInterfaceBoxing(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg

var sunk []any

func sink(v any) { sunk = append(sunk, v) }

type big struct{ a, b int }

//astra:hotpath
func Hot(b big, p *big, n int) {
	sink(n) // boxes int
	sink(p) // pointer-shaped: free
	sink(b) // boxes big
}
`)
	wantNotes(t, fs,
		"11:7: [escape] n escapes to heap",
		"13:7: [escape] b escapes to heap")
}

func TestPanicPathIsCold(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg
import "fmt"

//astra:hotpath
func Hot(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}
	if n > 1<<20 {
		panic("n too large")
	}
	return n
}
`)
	if len(fs) != 0 {
		t.Fatalf("panic argument flagged: %v", fs)
	}
}

// TestSuppression: a reasoned marker silences the note; a reason-less one
// silences nothing and is itself reported.
func TestSuppression(t *testing.T) {
	src := `package pkg

type rec struct{ n int }

//astra:hotpath
func Hot(pool []*rec) *rec {
	if len(pool) > 0 {
		return pool[0]
	}
	// lint:ok escape MARKER
	return &rec{}
}
`
	fs := linttest.Check(t, rules(t), strings.Replace(src, "MARKER", "pool growth, amortized across reuse", 1))
	if len(fs) != 0 {
		t.Fatalf("suppressed fixture still has findings: %v", fs)
	}
	fs = linttest.Check(t, rules(t), strings.Replace(src, " MARKER", "", 1))
	wantNotes(t, fs,
		"10:2: [suppression] lint:ok marker must name a rule and carry a written reason",
		"11:9: [escape] &rec{} escapes to heap")
}

// TestReportCatchesInjectedEscape is the rule's core promise: an
// allocation added to a clean annotated function surfaces as a finding.
func TestReportCatchesInjectedEscape(t *testing.T) {
	src := `package pkg

var leak []int

//astra:hotpath
func Hot(xs []int, n int) int {
	INJECT
	return xs[n]
}
`
	if fs := linttest.Check(t, rules(t), strings.Replace(src, "INJECT", "_ = n", 1)); len(fs) != 0 {
		t.Fatalf("clean fixture flagged: %v", fs)
	}
	fs := linttest.Check(t, rules(t), strings.Replace(src, "INJECT", "leak = make([]int, n)", 1))
	wantNotes(t, fs, "7:13: [escape] make([]int, n) escapes to heap in hotpath function Hot")
}

// TestBuildFailureIsAFinding: a package the compiler rejects cannot pass.
func TestBuildFailureIsAFinding(t *testing.T) {
	fs := linttest.Check(t, rules(t), `package pkg

//astra:hotpath
func Hot() int { return undefined }
`)
	wantNotes(t, fs, "4:1: [escape] go build -gcflags=-m failed")
}
