// Package distsim extends the single-GPU simulation to data-parallel
// multi-GPU training — the §3.4 dimension the paper lists as a natural
// fit for Astra's measurement-driven adaptation ("the choice of ideal
// degree of parallelism ... could be taken in an automated manner with
// runtime measurement and adaptation", §6.7).
//
// The model is synchronous data parallelism: each of N workers runs the
// per-device mini-batch (batch/N rows) on its own simulated GPU, and the
// gradients are combined with a ring all-reduce over the interconnect.
// The exchange is simulated at the event level by the custom-wirer
// (wire.CommConfig): gradients pack into buckets in dispatch order, each
// bucket's 2·(n−1) ring steps are communication kernels on a per-worker
// comm stream gated by the readiness event of the bucket's last gradient,
// and the cluster step is the slowest worker. Bucket size and comm-stream
// placement are adaptive variables the explorer tunes online per
// mini-batch, like any other schedule choice; the closed-form
// RingAllReduceUs formula survives only as a cross-check baseline for the
// serialized single-bucket regime.
//
// This package keeps what the data-parallel experiments share: the fabric
// models, the analytic ring formula and the fixed-schedule space. A
// data-parallel job itself is a job.Shape with Workers and Fabric set,
// lowered and run like any other session.
package distsim

import "astra/internal/enumerate"

// Interconnect models the gradient-exchange fabric.
type Interconnect struct {
	Name string
	// BytesPerUs is the per-link bandwidth (both directions combined).
	BytesPerUs float64
	// LatencyUs is the per-hop latency of one ring step.
	LatencyUs float64
}

// PCIe returns a PCIe-3.0-x16 peer-to-peer fabric (the paper-era default
// for multi-GPU boxes without NVLink).
func PCIe() Interconnect { return Interconnect{Name: "pcie3", BytesPerUs: 11000, LatencyUs: 8} }

// NVLink returns a first-generation NVLink fabric.
func NVLink() Interconnect { return Interconnect{Name: "nvlink1", BytesPerUs: 38000, LatencyUs: 3} }

// Fabrics returns the built-in interconnects, the sweep set of the
// multi-GPU experiments.
func Fabrics() []Interconnect { return []Interconnect{PCIe(), NVLink()} }

// FabricByName resolves an interconnect by its Name field.
func FabricByName(name string) (Interconnect, bool) {
	for _, ic := range Fabrics() {
		if ic.Name == name {
			return ic, true
		}
	}
	return Interconnect{}, false
}

// RingAllReduceUs returns the time to all-reduce `bytes` of gradients over
// n workers with the classic two-phase ring: 2·(n−1) steps, each moving
// bytes/n per link. This is the analytic cross-check baseline: the
// event-level simulation of a single bucket serialized on the main stream
// must converge to it (modulo per-kernel setup cost).
func (ic Interconnect) RingAllReduceUs(bytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	steps := 2 * (n - 1)
	perStep := float64(bytes) / float64(n) / ic.BytesPerUs
	return float64(steps) * (perStep + ic.LatencyUs)
}

// Schedule is one fixed communication schedule: a bucket-cap label from
// enumerate.CommBucketLabels ("256", "1024", ..., "all") and a placement
// from enumerate.CommPlacementLabels ("comm" or "main").
type Schedule struct {
	Bucket    string
	Placement string
}

// BulkSync is the bulk-synchronous baseline: every gradient in one bucket,
// exchanged on the main stream strictly after compute.
func BulkSync() Schedule { return Schedule{Bucket: "all", Placement: "main"} }

// Schedules enumerates every fixed communication schedule for a gradient
// payload — exactly the space the online explorer searches, so exhaustive
// sweeps and explored runs are comparable.
func Schedules(gradBytes int64) []Schedule {
	var out []Schedule
	for _, b := range enumerate.CommBucketLabels(gradBytes) {
		for _, p := range enumerate.CommPlacementLabels {
			out = append(out, Schedule{Bucket: b, Placement: p})
		}
	}
	return out
}
