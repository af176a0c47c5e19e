package verify

import (
	"fmt"
)

// hbResult holds the outcome of executing a symbolic schedule under FIFO
// stream semantics with vector clocks.
type hbResult struct {
	// post[s][i] is the vector clock immediately after op i of stream s
	// executed: post[s][i][t] counts the ops of stream t known (via program
	// order and record/wait edges) to have executed before that point.
	post [][][]int
	// deadlocked reports that execution stalled before draining every
	// stream; blocked describes the stuck waits.
	deadlocked bool
	blocked    []string
}

// simulate executes the schedule: each stream is a FIFO, a Wait op can only
// execute once the matching Record has, and everything else executes when
// it reaches the head of its stream. A stall with ops remaining is a
// synchronization deadlock — exactly the condition under which the real
// device would hang (cudaStreamWaitEvent on an event never recorded, or a
// wait cycle between streams).
func simulate(s *Schedule) *hbResult {
	nStreams := len(s.Streams)
	res := &hbResult{post: make([][][]int, nStreams)}
	next := make([]int, nStreams)
	clock := make([][]int, nStreams)
	for i := range clock {
		clock[i] = make([]int, nStreams)
		res.post[i] = make([][]int, len(s.Streams[i]))
	}
	recorded := map[int][]int{} // event -> clock snapshot at its record

	remaining := 0
	for _, ops := range s.Streams {
		remaining += len(ops)
	}
	for remaining > 0 {
		progress := false
		for st := 0; st < nStreams; st++ {
			for next[st] < len(s.Streams[st]) {
				op := &s.Streams[st][next[st]]
				if op.Kind == OpWait {
					snap, ok := recorded[op.Event]
					if !ok {
						break // blocked: the event has not been recorded yet
					}
					for t, v := range snap {
						if v > clock[st][t] {
							clock[st][t] = v
						}
					}
				}
				clock[st][st]++
				snap := make([]int, nStreams)
				copy(snap, clock[st])
				res.post[st][next[st]] = snap
				if op.Kind == OpRecord {
					recorded[op.Event] = snap
				}
				next[st]++
				remaining--
				progress = true
			}
		}
		if !progress {
			res.deadlocked = true
			for st := 0; st < nStreams; st++ {
				if next[st] < len(s.Streams[st]) {
					op := &s.Streams[st][next[st]]
					res.blocked = append(res.blocked, fmt.Sprintf("stream %d blocked at op %d (%s)", st, next[st], op.Label()))
				}
			}
			return res
		}
	}
	return res
}

// happensBefore reports whether op a is ordered before op b by program
// order and the record/wait synchronization edges.
func (h *hbResult) happensBefore(a, b Pos) bool {
	if b.Index >= len(h.post[b.Stream]) || h.post[b.Stream][b.Index] == nil {
		return false // b never executed (deadlock path)
	}
	return h.post[b.Stream][b.Index][a.Stream] >= a.Index+1
}
