// Package escape is the hot-path allocation rule. A function opts in with
// the marker comment
//
//	//astra:hotpath
//
// in its doc comment. For every package holding such a function the rule
// asks the one authority that decides whether an &T{} lands on the heap —
// the gc compiler's escape analysis — by running
//
//	go build -gcflags=-m .
//
// in the package directory, and reports each "escapes to heap" or "moved
// to heap" note that lands inside an annotated function. The compiler
// replays the notes from the build cache, so a repeat run costs a cache
// probe, not a rebuild.
//
// Notes inside a panic(...) argument are exempt: a panicking hot path is
// already cold. Everything else is fix-or-justify: an intentional
// allocation (pool growth, a per-context cache rebuild, a trace-detail
// path) carries a `lint:ok escape <reason>` marker on its line or the line
// above.
//
// The compiler sees every heap allocation it places, but not the ones the
// runtime makes on the fly: append growth past a slice's capacity and
// string concatenation into an escaping result. The exact AllocsPerRun
// budgets in alloc_budget_test.go cover those; docs/PERFORMANCE.md lists
// which budget row runs each annotated function.
package escape

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"astra/internal/lint"
)

// Annotation is the marker that opts a function into the rule.
const Annotation = "astra:hotpath"

func init() { lint.Register(rule{}) }

type rule struct{}

func (rule) Name() string { return "escape" }
func (rule) Doc() string {
	return "heap allocations the compiler's escape analysis (-gcflags=-m) places in //astra:hotpath functions"
}

// Applies is unconditional: the rule fires only inside annotated functions,
// so it is free to run over every package.
func (rule) Applies(rel string) bool { return true }

// Annotated reports whether a function declaration carries the hotpath
// marker. The match is exact — a directive comment line reading
// //astra:hotpath and nothing else — so prose that merely mentions the
// marker (like this sentence) does not annotate its function.
func Annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//"+Annotation {
			return true
		}
	}
	return false
}

// span is a source range [from, to), by line and column.
type span struct{ from, to token.Position }

func (s span) contains(line, col int) bool {
	if line < s.from.Line || line == s.from.Line && col < s.from.Column {
		return false
	}
	return line < s.to.Line || line == s.to.Line && col < s.to.Column
}

// hotFunc is one annotated function: its file, its extent and the extents
// of its panic arguments.
type hotFunc struct {
	name   string
	file   string
	body   span
	panics []span
}

// annotatedFuncs collects the package's annotated functions.
func annotatedFuncs(p *lint.Package) []hotFunc {
	var out []hotFunc
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !Annotated(fd) {
				continue
			}
			body := spanOf(p, fd)
			h := hotFunc{name: funcName(fd), file: body.from.Filename, body: body}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					for _, arg := range call.Args {
						h.panics = append(h.panics, spanOf(p, arg))
					}
				}
				return true
			})
			out = append(out, h)
		}
	}
	return out
}

func spanOf(p *lint.Package, n ast.Node) span {
	return span{p.Position(n.Pos()), p.Position(n.End())}
}

// funcName renders a declaration name the way readers write it:
// "Launch", "(*Device).Launch", "(Config).Check".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	writeType(&b, fd.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeType(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.StarExpr:
		b.WriteString("*")
		writeType(b, e.X)
	case *ast.IndexExpr: // generic receiver T[P]
		writeType(b, e.X)
	default:
		b.WriteString("?")
	}
}

func (rule) Check(p *lint.Package) []lint.Finding {
	hot := annotatedFuncs(p)
	if len(hot) == 0 {
		return nil
	}
	out, err := BuildDiagnostics(p.Dir)
	if err != nil {
		// The rule must not pass silently on a package it could not ask.
		return []lint.Finding{lint.NewFinding(hot[0].body.from, "escape", err.Error())}
	}
	var findings []lint.Finding
	for _, d := range ParseDiagnostics(out) {
		for _, h := range hot {
			if !sameTail(h.file, d.File) || !h.body.contains(d.Line, d.Col) || inPanic(h, d) {
				continue
			}
			findings = append(findings, lint.Finding{File: h.file, Line: d.Line, Col: d.Col,
				Rule: "escape", Message: d.Msg + " in hotpath function " + h.name})
			break
		}
	}
	return findings
}

func inPanic(h hotFunc, d Diag) bool {
	for _, s := range h.panics {
		if s.contains(d.Line, d.Col) {
			return true
		}
	}
	return false
}

// sameTail reports whether a compiler-printed path names file. The go
// command prints paths relative to the directory of whichever build first
// compiled the package (the build cache replays that text verbatim), so
// the printed path is matched as a suffix after dropping its leading "./"
// and "../" steps.
func sameTail(file, printed string) bool {
	printed = filepath.ToSlash(filepath.Clean(printed))
	if filepath.IsAbs(printed) {
		return filepath.ToSlash(file) == printed
	}
	for strings.HasPrefix(printed, "../") {
		printed = printed[len("../"):]
	}
	f := filepath.ToSlash(file)
	return f == printed || strings.HasSuffix(f, "/"+printed)
}

// Diag is one compiler escape note.
type Diag struct {
	File string // as printed by the compiler, slash separated
	Line int
	Col  int
	Msg  string
}

// BuildDiagnostics compiles the package in dir with -gcflags=-m and
// returns the compiler's output. Nothing is written: the compiled result
// goes to the null device. A build failure is an error.
func BuildDiagnostics(dir string) (string, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "-o", os.DevNull, ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		msg := strings.Join(strings.Fields(string(out)), " ")
		return "", fmt.Errorf("go build -gcflags=-m failed: %v: %s", err, msg)
	}
	return string(out), nil
}

// ParseDiagnostics extracts the heap-allocation notes — "escapes to heap"
// and "moved to heap" — from compiler -m output. Inlining chatter and
// parameter-leak notes are dropped: the rule tracks allocations, not every
// analysis fact.
func ParseDiagnostics(out string) []Diag {
	var diags []Diag
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		// file.go:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		col, err := strconv.Atoi(parts[2])
		if err != nil {
			continue
		}
		diags = append(diags, Diag{
			File: filepath.ToSlash(parts[0]),
			Line: ln,
			Col:  col,
			Msg:  strings.TrimSpace(parts[3]),
		})
	}
	return diags
}
