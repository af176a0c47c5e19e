package analyze

import (
	"sort"

	"astra/internal/obs"
)

// StreamTimeline is one stream's exact partition of [0, horizon]: busy
// segments for its kernels and categorized idle segments for everything
// between them. Segments are contiguous, non-overlapping, and cover the
// horizon exactly — Verify enforces this with zero tolerance.
type StreamTimeline struct {
	Worker   int       `json:"worker"`
	Stream   int       `json:"stream"`
	Segments []Segment `json:"segments"`
}

// StreamTimelines partitions every stream of one worker's batch against
// the cluster horizon (the slowest worker's wall time). Idle time is
// categorized by re-deriving each kernel's start constraint from the exact
// recorded operands:
//
//   - device idle before the kernel was even launched is IdleLaunchGap
//     (the CPU was the holdup);
//   - idle between the launch and the start is the wait that bound the
//     start (StartUs must equal WaitUs there), categorized by the
//     dispatcher's wait tag;
//   - idle after the stream's last kernel until the worker's wall is
//     IdleDrain;
//   - idle between the worker's wall and the cluster horizon is
//     IdleStragglerWait.
func StreamTimelines(p *obs.BatchProfile, horizonUs float64) []StreamTimeline {
	wall := p.WallUs()
	perStream := make([][]obs.KernelSample, p.Streams)
	for _, k := range p.Kernels {
		if k.Stream >= len(perStream) {
			// Defensive: profiles name their stream count, but grow if a
			// record disagrees.
			grown := make([][]obs.KernelSample, k.Stream+1)
			copy(grown, perStream)
			perStream = grown
		}
		perStream[k.Stream] = append(perStream[k.Stream], k)
	}
	out := make([]StreamTimeline, len(perStream))
	for s := range perStream {
		ks := perStream[s]
		// FIFO streams retire in start order; sort for safety (stable on
		// exact-equal starts, preserving launch order).
		sort.SliceStable(ks, func(i, j int) bool { return ks[i].StartUs < ks[j].StartUs })
		tl := StreamTimeline{Worker: p.Worker, Stream: s}
		cursor := 0.0
		add := func(seg Segment) {
			if seg.EndUs > seg.StartUs {
				tl.Segments = append(tl.Segments, seg)
			}
		}
		for i := range ks {
			k := &ks[i]
			if k.StartUs > cursor {
				// Idle gap [cursor, StartUs). The portion before LaunchUs is
				// dispatch-bound; any remainder means the start was bound by
				// an event wait (FreeUs equals the cursor on a FIFO stream),
				// so the wait's tag names the category.
				launchEnd := k.LaunchUs
				if launchEnd > k.StartUs {
					launchEnd = k.StartUs
				}
				if launchEnd > cursor {
					add(Segment{StartUs: cursor, EndUs: launchEnd,
						Kind: IdleLaunchGap, Stream: s, Worker: p.Worker})
					cursor = launchEnd
				}
				if k.StartUs > cursor {
					add(Segment{StartUs: cursor, EndUs: k.StartUs,
						Kind: waitTagCategory(k.WaitTag), Stream: s, Worker: p.Worker})
				}
			}
			add(Segment{StartUs: k.StartUs, EndUs: k.EndUs,
				Kind: "busy", Class: obs.KernelClass(k.Name), Name: k.Name,
				Stream: s, Worker: p.Worker})
			cursor = k.EndUs
		}
		if wall > cursor {
			add(Segment{StartUs: cursor, EndUs: wall,
				Kind: IdleDrain, Stream: s, Worker: p.Worker})
			cursor = wall
		}
		if horizonUs > cursor {
			add(Segment{StartUs: cursor, EndUs: horizonUs,
				Kind: IdleStragglerWait, Stream: s, Worker: p.Worker})
		}
		out[s] = tl
	}
	return out
}
