// Package verify is Astra's static safety net: a set of analyses that prove
// each point of the enumerated configuration space is semantically safe
// before the runtime spends a mini-batch measuring it (§4.4–§4.5 of the
// paper enumerate the space; this package closes the "trusted by
// construction" gap).
//
// The analyses split into two layers:
//
//   - Plan-level (run once at wire time): the graph IR itself — SSA
//     single-definition, acyclicity, shape consistency along every edge,
//     provenance sanity — plus the schedule-unit graph (every node covered
//     exactly once, dependencies consistent with value edges, topological
//     dispatch order) and every allocation strategy (all values placed, no
//     two buffers aliasing, satisfied contiguity requests actually
//     contiguous).
//
//   - Configuration-level (run per binding of the adaptive variables): the
//     binding is lowered to the op program the custom-wirer executes —
//     kernels, RecordEvent/WaitEvent edges, gather copies, comm buckets,
//     in issue order (BuildSchedule; wire.Runner runs this same value) —
//     and the program is checked with a vector-clock happens-before
//     analysis for cross-stream races and wait-cycle deadlocks, fusion
//     legality (contiguous-or-copied operands for every fused chunk),
//     end-of-batch synchronization, and comm-bucket coverage and ordering.
//
// Every analysis returns Findings rather than errors so callers can collect
// the complete picture; Report.Err() folds a non-empty report into a single
// *verify.Error for the session's sticky error path.
package verify

import (
	"fmt"
	"sort"
	"strings"
)

// Finding is one verification failure.
type Finding struct {
	// Check identifies the analysis, e.g. "graph.shape", "sched.race".
	Check string
	// Config describes the variable bindings the finding occurred under;
	// empty for plan-level (binding-independent) findings.
	Config string
	// Detail is the human-readable description.
	Detail string
}

// String renders the finding on one line.
func (f Finding) String() string {
	if f.Config == "" {
		return fmt.Sprintf("[%s] %s", f.Check, f.Detail)
	}
	return fmt.Sprintf("[%s] (%s) %s", f.Check, f.Config, f.Detail)
}

// Report accumulates findings across analyses and configurations.
type Report struct {
	Findings []Finding
	// Configs counts the distinct variable bindings that were checked.
	Configs int
}

// Add appends a finding.
func (r *Report) Add(check, config, detail string) {
	r.Findings = append(r.Findings, Finding{Check: check, Config: config, Detail: detail})
}

// Merge appends another report's findings and config count.
func (r *Report) Merge(o *Report) {
	r.Findings = append(r.Findings, o.Findings...)
	r.Configs += o.Configs
}

// OK reports whether no analysis found anything.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Checks returns the sorted distinct check IDs that fired.
func (r *Report) Checks() []string {
	set := map[string]bool{}
	for _, f := range r.Findings {
		set[f.Check] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Err returns nil for a clean report and a *Error otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Findings: append([]Finding{}, r.Findings...)}
}

// Error is the distinguishable error type a failed verification folds into:
// sessions store it as their sticky error, and callers unwrap it with
// errors.As to tell a safety violation from an exploration failure.
type Error struct {
	Findings []Finding
}

// Error summarises the findings: the count, the distinct checks, and the
// first finding in full.
func (e *Error) Error() string {
	checks := map[string]bool{}
	for _, f := range e.Findings {
		checks[f.Check] = true
	}
	ids := make([]string, 0, len(checks))
	for c := range checks {
		ids = append(ids, c)
	}
	sort.Strings(ids)
	msg := fmt.Sprintf("verify: %d finding(s) [%s]", len(e.Findings), strings.Join(ids, ","))
	if len(e.Findings) > 0 {
		msg += ": " + e.Findings[0].String()
	}
	return msg
}
