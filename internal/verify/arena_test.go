package verify

import (
	"reflect"
	"testing"

	"astra/internal/enumerate"
)

// TestArenaReuseMatchesFreshArena checks three schedules in turn with one
// happens-before arena — a large clean one, a smaller deadlocking one, then
// a racy one — and compares each report with the report of the same
// schedule checked with a fresh arena. Stale clocks or execution counts
// left by the larger program would change a report; every schedule-level
// finding must still carry the binding label of the plan it was lowered
// from.
func TestArenaReuseMatchesFreshArena(t *testing.T) {
	big := planFor(t, "sublstm")
	bindMultiStream(big)
	bigSched := BuildSchedule(big, mutSpec())
	if r := CheckSchedule(big, bigSched); !r.OK() {
		t.Fatalf("large schedule not clean: %v", r.Findings)
	}
	arena := bigSched // the schedule whose arena the next check reuses

	p := planFor(t, "scrnn")
	bindMultiStream(p)
	label := BindingLabel(p)
	if label == "" || label == "defaults" {
		t.Fatalf("scrnn's multi-stream binding has label %q", label)
	}
	// deadlock points the first wait at an event nothing records.
	deadlock := func() *Schedule {
		s := BuildSchedule(p, mutSpec())
		for st := range s.Streams {
			for i := range s.Streams[st] {
				if s.Streams[st][i].Kind == OpWait {
					s.Streams[st][i].Event = s.NumEvents
					s.NumEvents++
					return s
				}
			}
		}
		t.Fatal("schedule has no waits to corrupt")
		return nil
	}
	// race drops the first wait whose loss is a cross-stream race.
	var dropAt Pos
	found := false
	base := BuildSchedule(p, mutSpec())
	for st := range base.Streams {
		for i, op := range base.Streams[st] {
			if !found && op.Kind == OpWait && hasCheck(CheckSchedule(p, dropWait(p, Pos{st, i})), "sched.race") {
				dropAt, found = Pos{st, i}, true
			}
		}
	}
	if !found {
		t.Fatal("no dropped wait produced a sched.race finding")
	}
	race := func() *Schedule { return dropWait(p, dropAt) }

	for _, c := range []struct {
		check string
		build func() *Schedule
	}{{"sched.deadlock", deadlock}, {"sched.race", race}} {
		fresh := CheckSchedule(p, c.build())
		s := c.build()
		if ops(s) >= ops(bigSched) {
			t.Fatalf("%s schedule has %d ops, not fewer than the large one's %d", c.check, ops(s), ops(bigSched))
		}
		s.hb = arena.hb // check with the arena the previous schedules filled
		reused := CheckSchedule(p, s)
		arena = s
		if !hasCheck(reused, c.check) {
			t.Fatalf("reused arena: no %s finding; findings: %v", c.check, reused.Findings)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("%s: reused arena reports %v, a fresh arena %v", c.check, reused.Findings, fresh.Findings)
		}
		for _, f := range reused.Findings {
			if f.Config != label {
				t.Fatalf("%s finding %q carries config %q, want the binding label %q", f.Check, f.Detail, f.Config, label)
			}
		}
	}
}

// dropWait lowers p and turns the wait at pos into an inert record, as
// TestCheckScheduleDetectsRace does.
func dropWait(p *enumerate.Plan, pos Pos) *Schedule {
	s := BuildSchedule(p, mutSpec())
	s.Streams[pos.Stream][pos.Index] = Op{Kind: OpRecord, Name: "dropped-wait", Event: s.NumEvents, Bucket: -1}
	s.NumEvents++
	return s
}

func ops(s *Schedule) int {
	n := 0
	for _, st := range s.Streams {
		n += len(st)
	}
	return n
}
