package harness

import "testing"

func TestCostModelComparisonMath(t *testing.T) {
	c := CostModelComparison{ColdTrials: 20, PriorTrials: 13, PriorUs: 1001, ExhaustiveUs: 1000}
	if got := c.ReductionPct(); got != 35 {
		t.Fatalf("ReductionPct = %v, want 35", got)
	}
	if got := c.GapPct(); got < 0.09 || got > 0.11 {
		t.Fatalf("GapPct = %v, want ~0.1", got)
	}
	// Degenerate denominators report zero, not NaN/Inf.
	var zero CostModelComparison
	if zero.ReductionPct() != 0 || zero.GapPct() != 0 {
		t.Fatalf("zero comparison = %v%% / %v%%", zero.ReductionPct(), zero.GapPct())
	}
}

func TestBindingFlips(t *testing.T) {
	a := []string{"u=1", "v=a", "w=x"}
	b := []string{"u=1", "v=b", "w=y"}
	if got := bindingFlips(a, b); got != 2 {
		t.Fatalf("bindingFlips = %d, want 2", got)
	}
	if got := bindingFlips(a, a); got != 0 {
		t.Fatalf("identical lists flips = %d, want 0", got)
	}
}

func TestRelDiffPct(t *testing.T) {
	if got := relDiffPct(101, 100); got < 0.99 || got > 1.01 {
		t.Fatalf("relDiffPct(101,100) = %v, want ~1", got)
	}
	if got := relDiffPct(99, 100); got < 0.99 || got > 1.01 {
		t.Fatalf("relDiffPct is not symmetric: %v", got)
	}
	if got := relDiffPct(5, 0); got != 0 {
		t.Fatalf("relDiffPct with zero base = %v, want 0", got)
	}
}

// TestCompareCostModelSingleCell runs one real ext-costmodel cell in short
// mode: donor batch 32 trains the model, the batch-64 target explores cold
// and seeded, and CompareCostModel's internal gates (pruned-winner audit,
// 0.1% step and exhaustive-gap bounds) must all hold.
func TestCompareCostModelSingleCell(t *testing.T) {
	c, err := CompareCostModel("scrnn", "pcie3", 64, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.DonorTrials == 0 || c.ColdTrials == 0 || c.PriorTrials == 0 {
		t.Fatalf("implausible trial counts: %+v", c)
	}
	if c.PriorTrials >= c.ColdTrials {
		t.Fatalf("seeded run took %d trials vs cold %d — prior saved nothing", c.PriorTrials, c.ColdTrials)
	}
	if c.Prior.Hits+c.Prior.Misses == 0 {
		t.Fatalf("prior never planned: %+v", c.Prior)
	}
}
