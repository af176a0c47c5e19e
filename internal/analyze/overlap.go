package analyze

import (
	"sort"

	"astra/internal/obs"
)

// OverlapStats quantifies how well a batch hid its gradient exchange
// behind compute (§4.5.6 of the paper motivates exploring bucket size and
// placement; this is the measurement that judges the outcome).
type OverlapStats struct {
	// CommBusyUs is the union length of communication-kernel intervals,
	// ComputeBusyUs the union length of all other kernels' intervals.
	CommBusyUs    float64 `json:"comm_busy_us"`
	ComputeBusyUs float64 `json:"compute_busy_us"`
	// OverlapUs is the length of the intersection of the two unions — the
	// communication time actually hidden behind compute.
	OverlapUs float64 `json:"overlap_us"`
	// ExposedUs = CommBusyUs − OverlapUs: communication the batch waited
	// for. IdealUs = min(CommBusyUs, ComputeBusyUs) is the most overlap
	// this batch's workload could have achieved on any schedule.
	ExposedUs float64 `json:"exposed_us"`
	IdealUs   float64 `json:"ideal_us"`
	// Efficiency = OverlapUs/IdealUs (1 when there is nothing to overlap).
	Efficiency float64 `json:"efficiency"`
}

// finish derives the dependent fields after the additive ones are summed.
func (o *OverlapStats) finish() {
	o.ExposedUs = o.CommBusyUs - o.OverlapUs
	o.Efficiency = 1
	if o.IdealUs > 0 {
		o.Efficiency = o.OverlapUs / o.IdealUs
	}
}

// Overlap computes one worker's overlap statistics from its kernel
// timeline.
func Overlap(p *obs.BatchProfile) OverlapStats {
	var comm, compute []interval
	for i := range p.Kernels {
		k := &p.Kernels[i]
		iv := interval{k.StartUs, k.EndUs}
		if obs.KernelClass(k.Name) == obs.ClassAllReduce {
			comm = append(comm, iv)
		} else {
			compute = append(compute, iv)
		}
	}
	commU := union(comm)
	compU := union(compute)
	o := OverlapStats{
		CommBusyUs:    lengthUs(commU),
		ComputeBusyUs: lengthUs(compU),
		OverlapUs:     lengthUs(intersect(commU, compU)),
	}
	o.IdealUs = o.CommBusyUs
	if o.ComputeBusyUs < o.IdealUs {
		o.IdealUs = o.ComputeBusyUs
	}
	o.finish()
	return o
}

type interval struct{ lo, hi float64 }

// union merges intervals into a sorted, disjoint cover.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	out := []interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersect returns the intersection of two disjoint sorted covers.
func intersect(a, b []interval) []interval {
	var out []interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].lo
		if b[j].lo > lo {
			lo = b[j].lo
		}
		hi := a[i].hi
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

func lengthUs(ivs []interval) float64 {
	total := 0.0
	for _, iv := range ivs {
		total += iv.hi - iv.lo
	}
	return total
}
