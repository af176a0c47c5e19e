package wire

import (
	"fmt"
	"sort"
	"strings"

	"astra/internal/enumerate"
)

// ScheduleReport summarizes the wired configuration in human-readable form:
// what the custom-wirer decided for every adaptation dimension. astra-run
// prints it; tests assert on its structure.
type ScheduleReport struct {
	Alloc       string
	Groups      []GroupDecision
	StreamSplit map[int]int // stream -> units assigned
	SuperEpochs int
	Epochs      int
}

// GroupDecision records the wired choice for one fusion group.
type GroupDecision struct {
	ID         string
	Kind       string
	Members    int
	Chunk      string
	Library    string
	Contiguous bool
}

// Report builds the schedule report for the session's current variable
// bindings (call after Explore for the wired configuration).
func (s *Session) Report() ScheduleReport {
	p := s.Plan
	r := ScheduleReport{
		Alloc:       p.Alloc().Name,
		StreamSplit: map[int]int{},
		SuperEpochs: len(p.Supers),
	}
	for _, se := range p.Supers {
		r.Epochs += len(se.Epochs)
	}
	byUnit := map[*enumerate.FusionGroup]*enumerate.Unit{}
	for _, u := range p.Units {
		if u.Group != nil {
			byUnit[u.Group] = u
		}
	}
	for _, g := range p.Groups {
		d := GroupDecision{
			ID:      g.ID,
			Kind:    g.Kind.String(),
			Members: len(g.GEMMs),
			Chunk:   "1",
			Library: "cublas",
		}
		if v := p.ChunkVars[g]; v != nil {
			d.Chunk = v.CurrentLabel()
		}
		if u := byUnit[g]; u != nil {
			if v := p.KernelVars[u]; v != nil {
				d.Library = v.CurrentLabel()
			}
		}
		d.Contiguous = g.ReqID != "" && p.Alloc().Contiguous(g.ReqID)
		r.Groups = append(r.Groups, d)
	}
	sort.Slice(r.Groups, func(i, j int) bool { return r.Groups[i].ID < r.Groups[j].ID })
	if p.Opts.StreamAdapt {
		prog := s.Runner.Program()
		for _, u := range p.Units {
			r.StreamSplit[prog.FirstOp[u].Stream]++
		}
	}
	return r
}

// String renders the report.
func (r ScheduleReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "allocation strategy: %s\n", r.Alloc)
	fmt.Fprintf(&b, "schedule: %d super-epochs, %d epochs\n", r.SuperEpochs, r.Epochs)
	if len(r.StreamSplit) > 0 {
		streams := make([]int, 0, len(r.StreamSplit))
		for s := range r.StreamSplit { // lint:ok map-range keys sorted below
			streams = append(streams, s)
		}
		sort.Ints(streams)
		parts := make([]string, len(streams))
		for i, s := range streams {
			parts[i] = fmt.Sprintf("stream %d: %d units", s, r.StreamSplit[s])
		}
		fmt.Fprintf(&b, "stream assignment: %s\n", strings.Join(parts, ", "))
	}
	fused, unfused := 0, 0
	for _, g := range r.Groups {
		if g.Chunk == "1" {
			unfused++
		} else {
			fused++
		}
	}
	fmt.Fprintf(&b, "fusion groups: %d wired fused, %d wired unfused\n", fused, unfused)
	shown := 0
	for _, g := range r.Groups {
		if g.Chunk == "1" {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %-12s members=%-3d chunk=%-3s lib=%-7s contiguous=%v\n",
			g.ID, g.Kind, g.Members, g.Chunk, g.Library, g.Contiguous)
		shown++
		if shown >= 12 {
			fmt.Fprintf(&b, "  ... (%d more)\n", fused-shown)
			break
		}
	}
	return b.String()
}
