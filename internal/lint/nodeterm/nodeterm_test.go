package nodeterm_test

import (
	"testing"

	"astra/internal/lint"
	"astra/internal/lint/linttest"
	"astra/internal/lint/nodeterm"
)

func rules(t *testing.T, names ...string) []lint.Rule {
	t.Helper()
	rs, err := lint.ByNames(names)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func family(t *testing.T) []lint.Rule {
	return rules(t, "time-now", "wall-clock", "env-read", "global-rand", "map-range")
}

func TestTimeNow(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
import "time"
func Stamp() int64 { return time.Now().UnixNano() }
`)
	if linttest.CountRule(fs, "time-now") != 1 {
		t.Fatalf("findings: %v", fs)
	}
}

func TestWallClock(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
import "time"
var t0 time.Time
func Since() time.Duration { return time.Since(t0) }
func Until() time.Duration { return time.Until(t0) }
`)
	if linttest.CountRule(fs, "wall-clock") != 2 {
		t.Fatalf("findings: %v", fs)
	}
}

func TestEnvRead(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
import "os"
func Cfg() string {
	v, _ := os.LookupEnv("B")
	_ = os.Environ()
	return os.Getenv("A") + v
}
`)
	if linttest.CountRule(fs, "env-read") != 3 {
		t.Fatalf("findings: %v", fs)
	}
}

func TestGlobalRand(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
import "math/rand"
func Draw() int { return rand.Intn(10) }
func Seeded() *rand.Rand { return rand.New(rand.NewSource(1)) } // constructors are the fix
`)
	if linttest.CountRule(fs, "global-rand") != 1 {
		t.Fatalf("findings: %v", fs)
	}
}

func TestMapRange(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
func Sum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	for i := 0; i < 3; i++ { // not a map: stays silent
		s += i
	}
	return s
}
`)
	if linttest.CountRule(fs, "map-range") != 1 {
		t.Fatalf("findings: %v", fs)
	}
}

// TestSuppressionModernAndLegacy: lint:ok suppresses; the retired legacy
// spelling (the family's old name followed by ":ok") suppresses nothing.
func TestSuppressionModernAndLegacy(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
func Sum(m map[string]int) int {
	s := 0
	for _, v := range m { // lint:ok map-range order-independent sum
		s += v
	}
	for _, v := range m { // `+legacyMarker+` commutative fold
		s += v
	}
	return s
}
`)
	if len(fs) != 1 || fs[0].Rule != "map-range" || fs[0].Line != 7 {
		t.Fatalf("want the legacy-marked loop's map-range finding alone: %v", fs)
	}
}

// legacyMarker is the retired suppression spelling, assembled so the
// source tree itself never carries it.
const legacyMarker = "nodeterm" + ":ok"

func TestSuppressionNeedsReason(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
func Sum(m map[string]int) int {
	s := 0
	for _, v := range m { // lint:ok map-range
		s += v
	}
	return s
}
`)
	// The reason-less marker does not suppress, and is itself a finding.
	if linttest.CountRule(fs, "map-range") != 1 || linttest.CountRule(fs, "suppression") != 1 {
		t.Fatalf("findings: %v", fs)
	}
}

func TestSuppressionWrongRuleDoesNotCover(t *testing.T) {
	fs := linttest.Check(t, family(t), `package pkg
import "time"
func Stamp() int64 {
	// lint:ok map-range wrong rule name on purpose
	return time.Now().UnixNano()
}
`)
	if linttest.CountRule(fs, "time-now") != 1 {
		t.Fatalf("findings: %v", fs)
	}
}

func TestScope(t *testing.T) {
	for _, r := range family(t) {
		if !r.Applies("internal/gpusim") || !r.Applies("internal/wire/sub") {
			t.Errorf("%s must apply to the deterministic core", r.Name())
		}
		if r.Applies("cmd/astra-bench") {
			t.Errorf("%s must not apply outside the core", r.Name())
		}
		if r.Doc() == "" {
			t.Errorf("%s has no catalog doc line", r.Name())
		}
	}
	if !lint.InScope("internal/lint", nodeterm.Scope) {
		t.Error("the lint framework itself is part of the deterministic core")
	}
}
