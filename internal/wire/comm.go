package wire

import (
	"strings"

	"astra/internal/gpusim"
	"astra/internal/verify"
)

// CommConfig configures event-level gradient exchange for one data-parallel
// worker. The ring all-reduce of a gradient bucket is issued as 2·(n−1)
// communication kernels on a per-worker comm stream, gated by an event the
// producing compute stream records when the bucket's last gradient is done
// — so exchange overlaps the remaining backward pass instead of
// serializing behind it, and the simulator (not a formula) decides what the
// overlap is worth.
type CommConfig struct {
	// Workers is the data-parallel degree; values below 2 disable comm.
	Workers int
	// Rank identifies this worker (0-based); it only labels spans — the
	// ring is symmetric, so every rank issues the same step sequence.
	Rank int
	// BytesPerUs and LatencyUs describe one fabric link, matching
	// distsim.Interconnect.
	BytesPerUs float64
	LatencyUs  float64
	// Fabric names the interconnect for spans and reports.
	Fabric string
	// DefaultBucketKB is the gradient-bucket byte cap (in KB) used when the
	// plan has no comm.bucket_kb variable; 0 means a single bucket holding
	// every gradient.
	DefaultBucketKB int
	// DefaultPlacement is the comm-stream placement used when the plan has
	// no comm.place variable: "comm" (dedicated stream, overlapped) or
	// "main" (stream 0, serialized behind compute). Empty means "comm".
	DefaultPlacement string
}

// Enabled reports whether the configuration describes a real exchange.
func (c CommConfig) Enabled() bool { return c.Workers >= 2 && c.BytesPerUs > 0 }

// commStats scans the device records for communication kernels and fills
// the batch result's comm accounting: total link-busy time, the span from
// first to last comm kernel, and the kernel count.
func commStats(recs []*gpusim.KernelRecord, res *BatchResult) {
	first, last := 0.0, 0.0
	seen := false
	for _, rec := range recs {
		if !strings.HasPrefix(rec.Name, verify.RingStepPrefix) {
			continue
		}
		res.CommKernels++
		res.CommUs += rec.DurationUs()
		if !seen || rec.StartUs < first {
			first = rec.StartUs
		}
		if rec.EndUs > last {
			last = rec.EndUs
		}
		seen = true
	}
	if seen {
		res.CommSpanUs = last - first
	}
}
