// Package data provides the synthetic workload inputs of the evaluation:
// a Penn-Treebank-like sentence-length distribution (for the dynamic-graph
// bucketing experiment, §5.5 / Table 8) and deterministic token streams.
// Only shapes matter to Astra — the optimizations are value-preserving — so
// a distribution-faithful synthetic corpus exercises the same code paths as
// the real datasets.
package data

import (
	"fmt"
	"sort"

	"astra/internal/tensor"
)

// ptbBands is a piecewise-uniform model of the PTB sentence-length
// distribution, built so that its 20/40/60/80/100% quantiles are the bucket
// boundaries the paper reports: 13, 18, 24, 30 and 83.
var ptbBands = []struct {
	lo, hi int     // inclusive length range
	mass   float64 // probability mass of the band
}{
	{4, 13, 0.20},
	{14, 18, 0.20},
	{19, 24, 0.20},
	{25, 30, 0.20},
	{31, 83, 0.20},
}

// MaxPTBLength is the longest sentence in the synthetic PTB corpus.
const MaxPTBLength = 83

// SampleLengths draws n sentence lengths from the synthetic PTB
// distribution, deterministically from the seed.
func SampleLengths(n int, seed uint64) []int {
	rng := tensor.NewRNG(seed | 1)
	out := make([]int, n)
	for i := range out {
		u := rng.Float64()
		acc := 0.0
		for _, band := range ptbBands {
			acc += band.mass
			if u < acc || band.hi == MaxPTBLength {
				out[i] = band.lo + rng.Intn(band.hi-band.lo+1)
				break
			}
		}
	}
	return out
}

// Buckets computes k equal-frequency bucket boundaries (the maximum length
// each bucket admits) from a sample of lengths, the calibration the paper
// performs on PTB (§6.5: "5 buckets … calibrated on the distribution of
// input sentence lengths").
func Buckets(lengths []int, k int) []int {
	if k <= 0 || len(lengths) == 0 {
		panic("data: Buckets needs samples and k > 0")
	}
	s := append([]int{}, lengths...)
	sort.Ints(s)
	out := make([]int, k)
	for i := 1; i <= k; i++ {
		idx := i*len(s)/k - 1
		out[i-1] = s[idx]
	}
	// Boundaries must be strictly increasing to be useful.
	for i := 1; i < k; i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	return out
}

// BucketFor returns the smallest bucket boundary admitting length, mapping
// to the nearest larger bucket as §5.5 describes. It panics if the length
// exceeds every bucket.
func BucketFor(buckets []int, length int) int {
	for _, b := range buckets {
		if length <= b {
			return b
		}
	}
	panic(fmt.Sprintf("data: length %d exceeds largest bucket %d", length, buckets[len(buckets)-1]))
}
