package harness

import (
	"fmt"

	"astra/internal/enumerate"
	"astra/internal/models"
	"astra/internal/parallel"
)

func init() {
	experiments["inventory"] = Inventory
}

// Inventory characterizes every zoo model's training graph and what the
// enumerator finds in it — the structural context behind the evaluation
// tables (graph sizes, fusion surface, schedule partitioning, variables).
func Inventory(o Options) (*Table, error) {
	t := &Table{
		ID:    "inventory",
		Title: "Model and enumerator inventory (batch 16)",
		Header: []string{
			"Model", "nodes", "GEMMs", "units", "groups", "grouped GEMMs",
			"requests", "allocs", "super-epochs", "epochs", "variables",
		},
	}
	names := models.Names()
	rows, err := parallel.Map(o.workers(), len(names), func(i int) ([]string, error) {
		name := names[i]
		sh := defaultShape(name, 16, "All")
		m := sh.Build()
		p := enumerate.Enumerate(m.G, sh.SessionConfig().Options)
		st := p.Stats()
		gs := m.G.Stats()
		o.progress("inventory %s done", name)
		return []string{
			name,
			fmt.Sprint(gs.Nodes), fmt.Sprint(gs.MatMuls),
			fmt.Sprint(st.Units), fmt.Sprint(st.Groups), fmt.Sprint(st.GroupedGEMMs),
			fmt.Sprint(st.Requests), fmt.Sprint(st.Allocs),
			fmt.Sprint(st.SuperEpochs), fmt.Sprint(st.Epochs), fmt.Sprint(st.Variables),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
