package models

import (
	"strings"
	"testing"

	"astra/internal/graph"
	"astra/internal/tensor"
)

func TestAllModelsBuildAndValidateTiny(t *testing.T) {
	for _, name := range Names() {
		build, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%q) failed", name)
		}
		m := build(TinyConfig(name, 2))
		if err := m.G.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.G.Loss == nil {
			t.Errorf("%s: no loss", name)
		}
		if len(m.G.Grads) == 0 {
			t.Errorf("%s: no gradients", name)
		}
		st := m.G.Stats()
		if st.MatMuls == 0 {
			t.Errorf("%s: no GEMMs", name)
		}
	}
}

func TestAllModelsRunTiny(t *testing.T) {
	for _, name := range Names() {
		build, _ := Get(name)
		m := build(TinyConfig(name, 2))
		env := m.G.Run(m.MakeInputs(7), nil)
		loss := env[m.G.Loss].Data()[0]
		if loss <= 0 || loss > 100 {
			t.Errorf("%s: implausible loss %v", name, loss)
		}
		// Every declared gradient must be computed with the params' shapes.
		for p, gv := range m.G.Grads {
			gt := env[gv]
			if gt == nil {
				t.Errorf("%s: gradient of %s not computed", name, p.Name)
				continue
			}
			if !gt.Shape().Equal(p.Shape) {
				t.Errorf("%s: grad shape %v for param %v", name, gt.Shape(), p.Shape)
			}
		}
	}
}

func TestModelsDeterministic(t *testing.T) {
	for _, name := range Names() {
		build, _ := Get(name)
		m1 := build(TinyConfig(name, 2))
		m2 := build(TinyConfig(name, 2))
		l1 := m1.G.Run(m1.MakeInputs(3), nil)[m1.G.Loss].Data()[0]
		l2 := m2.G.Run(m2.MakeInputs(3), nil)[m2.G.Loss].Data()[0]
		if l1 != l2 {
			t.Errorf("%s: nondeterministic build: %v vs %v", name, l1, l2)
		}
	}
}

func TestEmbeddingToggle(t *testing.T) {
	cfg := TinyConfig("scrnn", 2)
	withEmb := SCRNN(cfg)
	if len(withEmb.IDs) != cfg.SeqLen || len(withEmb.Xs) != 0 {
		t.Fatalf("embedding model has %d ids, %d xs", len(withEmb.IDs), len(withEmb.Xs))
	}
	lookups := 0
	for _, n := range withEmb.G.Nodes {
		if n.Op == graph.OpLookup {
			lookups++
		}
	}
	if lookups != cfg.SeqLen {
		t.Fatalf("lookups = %d, want %d", lookups, cfg.SeqLen)
	}

	cfg.Embedding = false
	noEmb := SCRNN(cfg)
	if len(noEmb.IDs) != 0 || len(noEmb.Xs) != cfg.SeqLen {
		t.Fatalf("dense model has %d ids, %d xs", len(noEmb.IDs), len(noEmb.Xs))
	}
	for _, n := range noEmb.G.Nodes {
		if n.Op == graph.OpLookup {
			t.Fatal("dense variant still has lookups")
		}
	}
}

func TestProvenanceTimestepsAndScopes(t *testing.T) {
	m := StackedLSTM(TinyConfig("stackedlstm", 2))
	scopes := map[string]bool{}
	maxStep := -1
	for _, n := range m.G.Nodes {
		scopes[n.Prov.Scope] = true
		if n.Prov.Timestep > maxStep {
			maxStep = n.Prov.Timestep
		}
	}
	if !scopes["lstm0"] || !scopes["lstm1"] || !scopes["head"] {
		t.Fatalf("missing expected scopes: %v", scopes)
	}
	if maxStep != m.Cfg.SeqLen-1 {
		t.Fatalf("max timestep %d, want %d", maxStep, m.Cfg.SeqLen-1)
	}
}

func TestPerGateGEMMStructure(t *testing.T) {
	// The naive stacked LSTM must have 8 GEMMs per layer-step (2 per gate):
	// that is the fusion opportunity Astra exploits.
	cfg := TinyConfig("stackedlstm", 2)
	cfg.Backward = false
	m := StackedLSTM(cfg)
	perStep := map[[2]interface{}]int{}
	for _, n := range m.G.MatMulNodes() {
		if strings.HasPrefix(n.Prov.Scope, "lstm") {
			perStep[[2]interface{}{n.Prov.Scope, n.Prov.Timestep}]++
		}
	}
	for k, c := range perStep {
		if c != 8 {
			t.Fatalf("%v has %d GEMMs, want 8", k, c)
		}
	}
	if len(perStep) != cfg.Layers*cfg.SeqLen {
		t.Fatalf("layer-steps = %d, want %d", len(perStep), cfg.Layers*cfg.SeqLen)
	}
}

func TestGNMTHasAttentionTail(t *testing.T) {
	cfg := TinyConfig("gnmt", 2)
	cfg.Backward = false
	m := GNMT(cfg)
	att := 0
	for _, n := range m.G.Nodes {
		if n.Prov.Scope == "att" {
			att++
		}
	}
	if att == 0 {
		t.Fatal("no attention nodes")
	}
	// Attention emits softmax + per-position scale_cols chains.
	sawSoftmax, sawScale := false, false
	for _, n := range m.G.Nodes {
		if n.Prov.Scope != "att" {
			continue
		}
		if n.Op == graph.OpSoftmax {
			sawSoftmax = true
		}
		if n.Op == graph.OpScaleCols {
			sawScale = true
		}
	}
	if !sawSoftmax || !sawScale {
		t.Fatal("attention structure missing softmax/scale_cols")
	}
}

func TestGNMTDeeperThanStacked(t *testing.T) {
	g := GNMT(TinyConfig("gnmt", 2))
	s := StackedLSTM(TinyConfig("stackedlstm", 2))
	if len(g.G.Nodes) <= 2*len(s.G.Nodes) {
		t.Fatalf("gnmt (%d nodes) should be much larger than stacked (%d)", len(g.G.Nodes), len(s.G.Nodes))
	}
}

func TestSCRNNSharedArgumentGEMMs(t *testing.T) {
	// A·x_t and B·x_t share x_t — the §4.4.1 common-argument fusion
	// candidate pattern must exist in the forward trace.
	cfg := TinyConfig("scrnn", 2)
	cfg.Backward = false
	m := SCRNN(cfg)
	cons := m.G.Consumers()
	found := false
	for v, ns := range cons {
		mm := 0
		for _, n := range ns {
			if n.Op == graph.OpMatMul {
				mm++
			}
		}
		if mm >= 2 && v.Producer != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("no value consumed by >= 2 GEMMs")
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	for _, name := range Names() {
		cfg := DefaultConfig(name, 32)
		if cfg.Batch != 32 || cfg.SeqLen <= 0 || cfg.Hidden <= 0 || cfg.Vocab <= 0 {
			t.Fatalf("%s: bad default config %+v", name, cfg)
		}
		if !cfg.Backward || !cfg.Embedding {
			t.Fatalf("%s: defaults should enable backward+embedding", name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown model accepted")
			}
		}()
		DefaultConfig("nope", 8)
	}()
}

func TestSGDTrainingConvergesTiny(t *testing.T) {
	// End-to-end sanity: a few SGD steps on the tiny SCRNN reduce loss.
	m := SCRNN(TinyConfig("scrnn", 2))
	inputs := m.MakeInputs(5)
	params := m.G.InitialParams()
	first := m.G.Run(inputs, params)[m.G.Loss].Data()[0]
	var last float64
	for i := 0; i < 10; i++ {
		env := m.G.Run(inputs, params)
		last = env[m.G.Loss].Data()[0]
		applySGD(m.G, env, params, 0.5)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func applySGD(g *graph.Graph, env graph.Env, params graph.Env, lr float64) {
	for _, p := range g.Params {
		gv, ok := g.Grads[p]
		if !ok {
			continue
		}
		pd, gd := params[p].Data(), env[gv].Data()
		for i := range pd {
			pd[i] -= lr * gd[i]
		}
	}
}

func TestMakeInputsWithinVocab(t *testing.T) {
	m := StackedLSTM(TinyConfig("stackedlstm", 2))
	env := m.MakeInputs(9)
	for _, id := range m.IDs {
		for _, v := range env[id].Data() {
			if v < 0 || int(v) >= m.Cfg.Vocab {
				t.Fatalf("id %v out of vocab", v)
			}
		}
	}
	for _, v := range env[m.Targets].Data() {
		if v < 0 || int(v) >= m.Cfg.Vocab {
			t.Fatalf("target %v out of vocab", v)
		}
	}
	_ = tensor.Shape{}
}
