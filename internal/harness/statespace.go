package harness

import (
	"fmt"
	"strings"

	"astra/internal/enumerate"
	"astra/internal/memory"
	"astra/internal/parallel"
	"astra/internal/profile"
	"astra/internal/wire"
)

// Table7 reproduces the paper's Table 7: the size of the exploration state
// space post-pruning (configurations explored, one mini-batch each) for
// Astra_FKS and Astra_all, plus the always-on profiling overhead (§6.4).
func Table7(o Options) (*Table, error) {
	t := &Table{
		ID:     "table7",
		Title:  "Exploration state space post-pruning (configs = exploration mini-batches)",
		Header: []string{"Model", "Astra_FKS", "Astra_all", "alloc strategies", "profiling overhead"},
		Notes: []string{
			"paper: scrnn 303/1672, stackedlstm 1219/1219, milstm 1191/1191, sublstm 3207/5439, gnmt 2280/9303",
		},
	}
	batch := 16
	names := []string{"scrnn", "stackedlstm", "milstm", "sublstm", "gnmt"}
	if o.Quick {
		names = []string{"scrnn", "milstm", "sublstm"}
	}
	rows, err := parallel.Map(o.workers(), len(names), func(i int) ([]string, error) {
		name := names[i]
		sh := defaultShape(name, batch, "FKS")
		m := sh.Build()
		_, fks, _ := exploreWired(m, sh.SessionConfig())
		o.progress("table7 %s FKS done", name)
		sh.Level = "All"
		s := wire.NewSession(m, sh.SessionConfig())
		s.Explore()
		res := s.Step()
		frac := res.ProfilingOverheadUs() / res.TotalUs
		o.progress("table7 %s All done", name)
		return []string{
			name, fmt.Sprint(fks), fmt.Sprint(s.Trials), fmt.Sprint(len(s.Plan.Allocs)),
			fmt.Sprintf("%.3f%%", frac*100),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Figure1 demonstrates the conflicting fusion/allocation choice of the
// paper's Figure 1 on the SC-RNN backward pass: conflicting contiguity
// requests fork the allocation strategy, and the custom-wirer picks the
// strategy whose validated end-to-end time wins.
func Figure1(o Options) (*Table, error) {
	sh := defaultShape("scrnn", 16, "All")
	s := wire.NewSession(sh.Build(), sh.SessionConfig())
	p := s.Plan
	t := &Table{
		ID:     "fig1",
		Title:  "Conflicting fusion allocations in SC-RNN (forward vs backward groups)",
		Header: []string{"strategy", "satisfied requests", "validated e2e (us)"},
	}
	conflicts := 0
	for i := range p.Requests {
		for j := i + 1; j < len(p.Requests); j++ {
			if memory.Conflicts(p.Requests[i], p.Requests[j]) {
				conflicts++
			}
		}
	}
	if p.AllocVar == nil {
		return nil, fmt.Errorf("harness: scrnn produced no allocation fork (%d conflicts)", conflicts)
	}
	s.Explore()
	for i, a := range p.Allocs {
		mUs, ok := s.Ix.Lookup(profile.K("", p.AllocVar.ID, p.AllocVar.Labels[i]))
		val := "-"
		if ok {
			val = fmt.Sprintf("%.0f", mUs.ValueUs)
		}
		marker := ""
		if p.AllocVar.Current() == i {
			marker = " <== chosen"
		}
		t.Rows = append(t.Rows, []string{
			a.Name + marker,
			strings.Join(a.SatisfiedIDs(), ","),
			val,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d contiguity requests, %d conflicting pairs -> %d allocation strategies",
			len(p.Requests), conflicts, len(p.Allocs)))
	return t, nil
}

// Figure2 renders the exploration update tree (truncated) for the stacked
// LSTM, the structure the paper draws in Figure 2: super-epochs explored in
// parallel, prefix order across epochs, exhaustive class variables within.
func Figure2(o Options) (*Table, error) {
	sh := defaultShape("stackedlstm", 16, "All")
	p := enumerate.Enumerate(sh.Build().G, sh.SessionConfig().Options)
	if p.Tree == nil {
		return nil, fmt.Errorf("harness: no update tree")
	}
	lines := strings.Split(p.Tree.Render(), "\n")
	t := &Table{
		ID:     "fig2",
		Title:  "Astra exploration update tree (stacked LSTM, excerpt)",
		Header: []string{"tree"},
	}
	// Head of the tree (fork + first fusion-group subtrees)...
	for i := 0; i < len(lines) && i < 16; i++ {
		if lines[i] != "" {
			t.Rows = append(t.Rows, []string{lines[i]})
		}
	}
	// ...then the stream-exploration section: super-epochs in parallel,
	// prefix across epochs, exhaustive class variables within each.
	for i, l := range lines {
		if strings.Contains(l, "+ streams") {
			t.Rows = append(t.Rows, []string{"..."})
			for j := i; j < len(lines) && j < i+18; j++ {
				if lines[j] != "" {
					t.Rows = append(t.Rows, []string{lines[j]})
				}
			}
			t.Rows = append(t.Rows, []string{fmt.Sprintf("... (%d lines total)", len(lines))})
			break
		}
	}
	st := p.Stats()
	t.Notes = append(t.Notes, fmt.Sprintf(
		"units=%d fusion groups=%d super-epochs=%d epochs=%d adaptive variables=%d",
		st.Units, st.Groups, st.SuperEpochs, st.Epochs, st.Variables))
	return t, nil
}
