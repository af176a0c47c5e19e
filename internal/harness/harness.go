// Package harness regenerates every table and figure of the paper's
// evaluation (§6) on the simulated substrate. Each experiment returns a
// Table that prints in the same row/column structure as the paper, so
// EXPERIMENTS.md can put measured values side by side with published ones.
package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options scales the experiments.
type Options struct {
	// Quick restricts batch-size sweeps to {16, 32} and uses lighter
	// adaptation levels where the full experiment would take minutes;
	// the qualitative shapes are unchanged.
	Quick bool
	// Parallel bounds the worker count for an experiment's independent
	// cells (exploration episodes). 0 or 1 runs serially; negative means
	// one worker per available CPU. Every cell builds its own model,
	// session and simulated device, and results merge in canonical cell
	// order, so any Parallel value produces byte-identical tables.
	Parallel int
	// Progress, when non-nil, receives one line per completed cell. With
	// Parallel > 1 it is called from multiple goroutines and must be safe
	// for concurrent use; line order then depends on scheduling (the table
	// itself never does).
	Progress func(string)
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// workers resolves Options.Parallel for parallel.Map: the default 0 stays
// serial so existing callers keep their exact execution profile.
func (o Options) workers() int {
	if o.Parallel == 0 {
		return 1
	}
	return o.Parallel
}

func (o Options) batches() []int {
	if o.Quick {
		return []int{16, 32}
	}
	return []int{8, 16, 32, 64, 128, 256}
}

// Runner is an experiment generator.
type Runner func(Options) (*Table, error)

var experiments = map[string]Runner{
	"table1": Table1,
	"sec32":  Section32,
	"fig1":   Figure1,
	"fig2":   Figure2,
	"table2": func(o Options) (*Table, error) { return speedupTable("table2", "scrnn", o) },
	"table3": func(o Options) (*Table, error) { return speedupTable("table3", "milstm", o) },
	"table4": func(o Options) (*Table, error) { return speedupTable("table4", "sublstm", o) },
	"table5": func(o Options) (*Table, error) { return cudnnTable("table5", "stackedlstm", o) },
	"table6": func(o Options) (*Table, error) { return cudnnTable("table6", "gnmt", o) },
	"table7": Table7,
	"table8": Table8,
	"table9": Table9,
	// Ablations of Astra's own design choices (not in the paper's tables;
	// they back the claims of §4.3, §4.5.3 and §7).
	"ablation-profiling": AblationProfiling,
	"ablation-autoboost": AblationAutoboost,
	"ablation-barrier":   AblationBarrier,
}

// Names lists the experiment IDs in canonical order.
func Names() []string {
	out := make([]string, 0, len(experiments))
	for k := range experiments {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, o Options) (*Table, error) {
	r, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, Names())
	}
	return r(o)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
