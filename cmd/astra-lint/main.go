// astra-lint runs Astra's static-analysis rule suite (internal/lint) over
// the repository's packages: the determinism family (time-now, wall-clock,
// env-read, global-rand, map-range), the lock-discipline rule (lockcheck)
// and the hot-path allocation rule (escape), which reads the compiler's
// escape analysis for every //astra:hotpath function.
//
//	astra-lint                      # all rules, every internal/ and cmd/ package
//	astra-lint internal/wire        # explicit package dirs (root-relative)
//	astra-lint -rules map-range     # a rule subset
//	astra-lint -json                # machine-readable findings
//	astra-lint -parallel 0          # one worker per CPU; output is byte-identical
//	astra-lint -force testdata/x    # ignore rule scopes (fixture dirs)
//	astra-lint -list                # the rule catalog
//
// Every rule encodes its own scope (Applies); the driver visits every
// package and lets the rules decide, so "lint the whole tree" and "each
// rule owns its packages" are the same run. Findings print root-relative
// in file:line:col: [rule] message form and exit status 1; loader or usage
// errors exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"astra/internal/lint"
	_ "astra/internal/lint/escape"
	_ "astra/internal/lint/lockcheck"
	_ "astra/internal/lint/nodeterm"
	"astra/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astra-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root to lint")
	rulesFlag := fs.String("rules", "", "comma-separated rule subset (default: every registered rule)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	par := fs.Int("parallel", 1, "package-loading workers; values below 1 mean one per CPU")
	force := fs.Bool("force", false, "run the selected rules on every package, ignoring rule scopes")
	list := fs.Bool("list", false, "print the rule catalog and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, r := range lint.Rules() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.Name(), r.Doc())
		}
		return 0
	}

	rules := lint.Rules()
	if *rulesFlag != "" {
		var err error
		rules, err = lint.ByNames(strings.Split(*rulesFlag, ","))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	modPath, err := modulePath(absRoot)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	dirs := fs.Args()
	if len(dirs) == 0 {
		dirs, err = lint.PackageDirs(absRoot, ".", "internal", "cmd")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	// One loader per concurrent worker, recycled through a pool: a Loader is
	// single-threaded but memoizes type-checked imports, so reuse matters.
	// Findings depend only on package content — which loader checks which
	// package cannot change the output, so -parallel N is byte-identical to
	// serial for every N.
	pool := sync.Pool{New: func() any { return lint.NewLoader(absRoot, modPath) }}
	perDir, err := parallel.Map(*par, len(dirs), func(i int) ([]lint.Finding, error) {
		ld := pool.Get().(*lint.Loader)
		defer pool.Put(ld)
		rel := filepath.ToSlash(dirs[i])
		p, err := ld.Load(filepath.Join(absRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return lint.Run(p, rules, rel, *force), nil
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings := []lint.Finding{}
	for _, fs := range perDir {
		findings = append(findings, fs...)
	}
	// Root-relative paths: stable output across checkouts and CI runners.
	for i := range findings {
		if rel, err := filepath.Rel(absRoot, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = filepath.ToSlash(rel)
		}
	}
	lint.SortFindings(findings)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings []lint.Finding `json:"findings"`
		}{findings}); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "%d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// modulePath reads the module path from go.mod — the loader needs it to
// resolve module-local imports from source.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("astra-lint: no module line in %s/go.mod", root)
}
