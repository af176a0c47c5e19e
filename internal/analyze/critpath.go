package analyze

import "astra/internal/obs"

// CriticalPath reconstructs the exact critical path of one worker's batch:
// a contiguous chain of segments from 0 to the worker's wall time, each
// either a kernel execution or CPU dispatch time. The walk runs backwards
// from the batch end; at every kernel it re-derives the constraint that
// bound the kernel's start by exact float comparison against the recorded
// operands of StartUs = max(LaunchUs, FreeUs, WaitUs):
//
//   - FreeUs binding: the stream FIFO — jump to the predecessor kernel on
//     the same stream (it ended exactly at FreeUs);
//   - WaitUs binding: a cross-stream event — jump to the kernel whose end
//     resolved the event (on WaitStream; the recorded event resolved when
//     that stream drained to it);
//   - LaunchUs binding: the CPU — the dispatcher is serial from batch
//     start, so the path terminates with a dispatch segment [0, LaunchUs].
//
// A batch whose CPU clock outran the device (dispatch-bound end) is a
// single dispatch segment. The chain's segment durations always sum to the
// wall time exactly, because consecutive segments share their boundary.
func CriticalPath(p *obs.BatchProfile) []Segment {
	wall := p.WallUs()
	if wall == 0 {
		return nil
	}
	worker := p.Worker
	dispatch := func(end float64) Segment {
		return Segment{StartUs: 0, EndUs: end, Kind: ClassDispatch, Worker: worker}
	}
	if len(p.Kernels) == 0 || p.CPUUs > p.EndUs {
		// CPU-bound batch: the dispatcher (plus any synchronous host
		// transfers folded into its clock) was the constraint end to end.
		return []Segment{dispatch(wall)}
	}

	var rev []Segment // built back-to-front
	t := wall
	prefer, hasPrefer := 0, false
	for t > 0 {
		k := kernelEndingAt(p, t, prefer, hasPrefer)
		if k == nil {
			// No kernel ends here: the remaining span is CPU time (e.g. an
			// event resolved at its CPU arrival on an idle stream).
			rev = append(rev, dispatch(t))
			break
		}
		rev = append(rev, Segment{
			StartUs: k.StartUs, EndUs: k.EndUs,
			Kind: "busy", Class: obs.KernelClass(k.Name), Name: k.Name,
			Stream: k.Stream, Worker: worker,
		})
		t = k.StartUs
		switch {
		case t == 0:
			// First constraint is the batch start itself.
		case k.FreeUs == t && k.FreeUs > 0:
			prefer, hasPrefer = k.Stream, true
		case k.WaitUs == t && k.WaitUs > 0:
			prefer, hasPrefer = k.WaitStream, true
		default:
			// LaunchUs bound the start: the serial dispatcher worked from
			// batch start to the launch.
			rev = append(rev, dispatch(t))
			t = 0
		}
	}
	// Reverse into chronological order.
	out := make([]Segment, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// kernelEndingAt finds the kernel whose EndUs equals t exactly, preferring
// the given stream (the binding constraint's source), then any stream. Ties
// break to the latest StartUs, then the highest launch index, so the choice
// is deterministic.
func kernelEndingAt(p *obs.BatchProfile, t float64, prefer int, hasPrefer bool) *obs.KernelSample {
	var onPrefer, any *obs.KernelSample
	for i := range p.Kernels {
		k := &p.Kernels[i]
		if k.EndUs != t {
			continue
		}
		if hasPrefer && k.Stream == prefer && better(k, onPrefer) {
			onPrefer = k
		}
		if better(k, any) {
			any = k
		}
	}
	if onPrefer != nil {
		return onPrefer
	}
	return any
}

// better reports whether k wins the deterministic tie-break against cur
// (nil cur always loses). Preferring the latest-starting kernel keeps path
// segments minimal; the pointer comparison resolves exact-equal starts by
// launch order (later index wins, and indices are scanned ascending).
func better(k, cur *obs.KernelSample) bool {
	return cur == nil || k.StartUs >= cur.StartUs
}
