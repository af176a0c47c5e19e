package whatif

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"astra/internal/obs"
)

// ParseSpeedup parses a CLI speedup spec of the form "class=gemm,factor=2"
// into its (class, factor) pair. Both keys are required; unknown keys,
// unknown classes and non-positive factors are errors, never silent no-ops.
func ParseSpeedup(spec string) (string, float64, error) {
	var class string
	factor := 0.0
	sawClass, sawFactor := false, false
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return "", 0, fmt.Errorf("whatif: bad speedup spec %q: expected key=value, got %q (valid keys: class, factor)", spec, part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "class":
			if !validClass(val) {
				return "", 0, fmt.Errorf("whatif: bad speedup spec %q: unknown kernel class %q (valid: %s)",
					spec, val, strings.Join(obs.KernelClasses(), ", "))
			}
			class, sawClass = val, true
		case "factor":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", 0, fmt.Errorf("whatif: bad speedup spec %q: factor %q is not a number", spec, val)
			}
			if f <= 0 {
				return "", 0, fmt.Errorf("whatif: bad speedup spec %q: factor must be positive, got %v", spec, f)
			}
			factor, sawFactor = f, true
		default:
			return "", 0, fmt.Errorf("whatif: bad speedup spec %q: unknown key %q (valid keys: class, factor)", spec, key)
		}
	}
	if !sawClass || !sawFactor {
		return "", 0, fmt.Errorf("whatif: bad speedup spec %q: both class= and factor= are required", spec)
	}
	return class, factor, nil
}

// ScenarioName derives a stable human-readable name for a perturbation:
// "identity", or "+"-joined parts like "gemm x2+fabric=nvlink1+workers=8".
func ScenarioName(p Perturbation) string {
	if p.Identity() {
		return "identity"
	}
	var classes []string
	for c, f := range p.Speedups { // lint:ok map-range collected then sorted
		if f != 1 {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	var parts []string
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s x%g", c, p.Speedups[c]))
	}
	if lf := p.launchFactor(); lf != 1 {
		parts = append(parts, fmt.Sprintf("launch x%g", lf))
	}
	if bf := p.bucketFactor(); bf != 1 {
		parts = append(parts, fmt.Sprintf("bucket x%g", bf))
	}
	if p.Fabric != "" {
		parts = append(parts, "fabric="+p.Fabric)
	}
	if p.Workers != 0 {
		parts = append(parts, fmt.Sprintf("workers=%d", p.Workers))
	}
	return strings.Join(parts, "+")
}

// NewScenario wraps a perturbation with its derived name.
func NewScenario(p Perturbation) Scenario {
	return Scenario{Name: ScenarioName(p), Pert: p}
}

// MatrixScenarios builds the standard validation grid: identity first, then
// every fabric × ring-size cell (each a pure comm re-cost of the recording).
func MatrixScenarios(fabrics []string, workers []int) []Scenario {
	out := []Scenario{{Name: "identity"}}
	for _, f := range fabrics {
		for _, n := range workers {
			out = append(out, NewScenario(Perturbation{Fabric: f, Workers: n}))
		}
	}
	return out
}
