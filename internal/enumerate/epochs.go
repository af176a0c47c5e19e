package enumerate

import (
	"fmt"
	"sort"
)

// SuperEpoch is a barrier-delimited span of the schedule (§4.5.3): streams
// are force-synchronized at its boundary, resetting scheduling history so
// different super-epochs explore their stream assignments in parallel.
type SuperEpoch struct {
	Index  int
	Epochs []*Epoch
	Flops  int64
}

// Epoch is one dependency level inside a super-epoch (§4.5.4): its units
// are mutually independent and may spread across streams, synchronized
// against the previous epoch with events.
type Epoch struct {
	Index   int // global epoch index
	Units   []*Unit
	Classes []*Class
}

// Class is an equivalence class of interchangeable units within an epoch
// (§4.5.5): same kind, same shapes, same dependency signature. The stream
// choice for a class of n units on two streams is "how many go to stream
// 1" — n+1 choices instead of 2^n.
type Class struct {
	Sig   string
	Units []*Unit
}

// partition assigns every unit an epoch (its dependency level) and groups
// consecutive epochs into super-epochs of roughly superEpochUs worth of
// estimated device time, estimated from static flops (§4.5.3). It also
// re-sorts units into (level, node-id) order: fusion groups can span nodes
// whose consumers sit between the members, so raw emission order is not
// topological at unit granularity.
func partition(units []*Unit, superEpochUs float64) []*SuperEpoch {
	level := map[*Unit]int{}
	var lvl func(u *Unit) int
	lvl = func(u *Unit) int {
		if l, ok := level[u]; ok {
			return l
		}
		level[u] = 0 // breaks accidental cycles defensively
		l := 0
		for _, d := range u.Deps {
			if dl := lvl(d) + 1; dl > l {
				l = dl
			}
		}
		level[u] = l
		return l
	}
	maxLevel := 0
	for _, u := range units {
		if l := lvl(u); l > maxLevel {
			maxLevel = l
		}
	}
	sort.SliceStable(units, func(i, j int) bool {
		if level[units[i]] != level[units[j]] {
			return level[units[i]] < level[units[j]]
		}
		return units[i].Nodes[0].ID < units[j].Nodes[0].ID
	})
	byLevel := make([][]*Unit, maxLevel+1)
	for _, u := range units {
		u.Epoch = level[u]
		byLevel[level[u]] = append(byLevel[level[u]], u)
	}

	var supers []*SuperEpoch
	cur := &SuperEpoch{Index: 0}
	budget := superEpochUs * flopsPerUs
	for li, lvl := range byLevel {
		if len(lvl) == 0 {
			continue
		}
		ep := &Epoch{Index: li, Units: lvl}
		ep.Classes = classify(lvl)
		var f int64
		for _, u := range lvl {
			f += u.Flops()
		}
		cur.Epochs = append(cur.Epochs, ep)
		cur.Flops += f
		for _, u := range lvl {
			u.SuperEpoch = cur.Index
		}
		if float64(cur.Flops) >= budget {
			supers = append(supers, cur)
			cur = &SuperEpoch{Index: cur.Index + 1}
		}
	}
	if len(cur.Epochs) > 0 {
		supers = append(supers, cur)
	}
	return supers
}

// classify groups an epoch's units into equivalence classes by a static
// signature: unit kind, the multiset of (op, output shape) of its nodes,
// and the dependency count. Units with equal signatures are
// interchangeable for stream assignment (§4.5.5).
func classify(units []*Unit) []*Class {
	bySig := map[string]*Class{}
	var order []string
	for _, u := range units {
		sig := classSig(u)
		u.Class = sig
		c, ok := bySig[sig]
		if !ok {
			c = &Class{Sig: sig}
			bySig[sig] = c
			order = append(order, sig)
		}
		c.Units = append(c.Units, u)
	}
	sort.Strings(order)
	out := make([]*Class, 0, len(order))
	for _, sig := range order {
		out = append(out, bySig[sig])
	}
	return out
}

func classSig(u *Unit) string {
	ops := make([]string, 0, len(u.Nodes))
	for _, n := range u.Nodes {
		ops = append(ops, fmt.Sprintf("%s%v", n.Op, n.Out.Shape))
	}
	sort.Strings(ops)
	return fmt.Sprintf("k%d|d%d|%v", u.Kind, len(u.Deps), ops)
}
