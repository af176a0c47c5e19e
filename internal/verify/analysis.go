package verify

import (
	"fmt"
)

// hbResult holds the outcome of executing a symbolic schedule under FIFO
// stream semantics with vector clocks. A schedule keeps one with it and
// every check of the schedule refills it, so after the first check of a
// program that size the analysis allocates no clocks.
type hbResult struct {
	// n is the stream count, the width of every clock.
	n int
	// base[s] numbers stream s's first op in one flat numbering of all
	// ops (streams in order); row k of clocks belongs to op k.
	base []int
	// done[s] counts the ops of stream s that executed. Streams are
	// FIFOs, so op i of stream s executed exactly when i < done[s]: rows
	// past that were not written by this check and are never read.
	done []int
	// clocks holds the vector clock immediately after each executed op:
	// row (base[s]+i) has, at t, the number of ops of stream t known (via
	// program order and record/wait edges) to have executed before that
	// point.
	clocks []int
	// recorded maps an event to the flat number of the op that recorded
	// it, -1 while unrecorded.
	recorded []int
	// deadlocked reports that execution stalled before draining every
	// stream; blocked describes the stuck waits.
	deadlocked bool
	blocked    []string
}

// row returns the clock of flat op k.
func (h *hbResult) row(k int) []int { return h.clocks[k*h.n : (k+1)*h.n] }

// simulate executes the schedule: each stream is a FIFO, a Wait op can only
// execute once the matching Record has, and everything else executes when
// it reaches the head of its stream. A stall with ops remaining is a
// synchronization deadlock — exactly the condition under which the real
// device would hang (cudaStreamWaitEvent on an event never recorded, or a
// wait cycle between streams). The result lives in s's arena and is valid
// until s is checked again.
//
//astra:hotpath
func simulate(s *Schedule) *hbResult {
	res := &s.hb
	n := len(s.Streams)
	res.n = n
	// lint:ok escape arena growth (inlined resize), once per wider program
	res.base = resize(res.base, n)
	// lint:ok escape arena growth (inlined resize), once per wider program
	res.done = resize(res.done, n)
	clear(res.done)
	ops, events := 0, 0
	for st, prog := range s.Streams {
		res.base[st] = ops
		ops += len(prog)
		for i := range prog {
			// Size the event table by the events recorded: a wait on any
			// other event can never be satisfied.
			if op := &prog[i]; op.Kind == OpRecord && op.Event >= events {
				events = op.Event + 1
			}
		}
	}
	// lint:ok escape arena growth (inlined resize), once per larger program
	res.clocks = resize(res.clocks, ops*n)
	// lint:ok escape arena growth (inlined resize), once per larger program
	res.recorded = resize(res.recorded, events)
	for i := range res.recorded {
		res.recorded[i] = -1
	}
	res.deadlocked = false
	res.blocked = res.blocked[:0]

	remaining := ops
	for remaining > 0 {
		progress := false
		for st := 0; st < n; st++ {
			for i := res.done[st]; i < len(s.Streams[st]); i++ {
				op := &s.Streams[st][i]
				if op.Kind == OpWait && (op.Event < 0 || op.Event >= events || res.recorded[op.Event] < 0) {
					break // blocked: the event has not been recorded yet
				}
				// The clock after op i starts from the one after op i-1.
				k := res.base[st] + i
				clock := res.row(k)
				if i == 0 {
					clear(clock)
				} else {
					copy(clock, res.row(k-1))
				}
				if op.Kind == OpWait {
					for t, v := range res.row(res.recorded[op.Event]) {
						if v > clock[t] {
							clock[t] = v
						}
					}
				}
				clock[st]++
				if op.Kind == OpRecord && op.Event >= 0 {
					res.recorded[op.Event] = k
				}
				res.done[st] = i + 1
				remaining--
				progress = true
			}
		}
		if !progress {
			res.deadlocked = true
			for st := 0; st < n; st++ {
				if i := res.done[st]; i < len(s.Streams[st]) {
					op := &s.Streams[st][i]
					// lint:ok escape a deadlock's report, never on a clean schedule
					res.blocked = append(res.blocked, fmt.Sprintf("stream %d blocked at op %d (%s)", st, i, op.Label()))
				}
			}
			return res
		}
	}
	return res
}

// resize returns a length-n slice reusing buf's storage. The contents are
// stale: callers overwrite what they read.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// happensBefore reports whether op a is ordered before op b by program
// order and the record/wait synchronization edges.
func (h *hbResult) happensBefore(a, b Pos) bool {
	if b.Index >= h.done[b.Stream] {
		return false // b never executed (deadlock path)
	}
	return h.row(h.base[b.Stream] + b.Index)[a.Stream] >= a.Index+1
}
