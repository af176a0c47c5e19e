// Package linttest holds the shared fixture harness for rule tests: write
// one Go source string into a throwaway module, load it through the real
// internal/lint loader, run a rule set over it and return the surviving
// findings. Every rule package's mutation fixtures (seed a violation,
// assert the rule catches it; add a justified suppression, assert it goes
// quiet) go through this path, so the tests exercise the same loader,
// suppression filter and ordering the astra-lint driver uses.
package linttest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astra/internal/lint"
)

// Check loads src as package fix/pkg in a fresh temp module and runs the
// given rules over it with scope checks bypassed (fixtures live outside any
// real rule scope). It returns the findings after suppression filtering, in
// canonical order.
func Check(t *testing.T, rules []lint.Rule, src string) []lint.Finding {
	t.Helper()
	return lint.Run(Load(t, src), rules, "pkg", true)
}

// Load writes src as package fix/pkg into a fresh temp module and returns
// it loaded and type-checked.
func Load(t *testing.T, src string) *lint.Package {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fix\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "pkg")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld := lint.NewLoader(root, "fix")
	p, err := ld.Load(dir)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return p
}

// RuleNames returns the distinct rule names present in the findings.
func RuleNames(fs []lint.Finding) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range fs {
		if !seen[f.Rule] {
			seen[f.Rule] = true
			out = append(out, f.Rule)
		}
	}
	return out
}

// HasMessage reports whether any finding's message contains substr.
func HasMessage(fs []lint.Finding, substr string) bool {
	for _, f := range fs {
		if strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}

// CountRule returns the number of findings carrying the rule name.
func CountRule(fs []lint.Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}
