package astra

import (
	"bytes"
	"strings"
	"testing"
)

func TestBuildModelZoo(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := BuildModel(name, ModelConfig{Batch: 2, Tiny: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Nodes() == 0 || m.GEMMs() == 0 {
			t.Fatalf("%s: empty model", name)
		}
		if !strings.Contains(m.Trace(), "mm(") {
			t.Fatalf("%s: trace has no GEMMs", name)
		}
	}
	if _, err := BuildModel("bogus", ModelConfig{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestModelConfigOverrides(t *testing.T) {
	m, err := BuildModel("scrnn", ModelConfig{Batch: 4, SeqLen: 3, Hidden: 16, Vocab: 20, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	im := m.Internal()
	if im.Cfg.SeqLen != 3 || im.Cfg.Hidden != 16 || im.Cfg.Vocab != 20 || im.Cfg.Batch != 4 {
		t.Fatalf("overrides not applied: %+v", im.Cfg)
	}
}

func TestCompileExploreTiny(t *testing.T) {
	m, err := BuildModel("sublstm", ModelConfig{Batch: 2, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := Compile(m, Options{Level: LevelAll})
	stats := sess.Explore()
	if stats.Configs <= 0 {
		t.Fatal("no configurations explored")
	}
	if stats.Speedup <= 1 {
		t.Fatalf("speedup %v <= 1", stats.Speedup)
	}
	if !sess.Done() {
		t.Fatal("not converged")
	}
	if sess.Step() <= 0 {
		t.Fatal("step time not positive")
	}
}

func TestLevelsOrdering(t *testing.T) {
	m, _ := BuildModel("scrnn", ModelConfig{Batch: 2, Tiny: true})
	var prev float64
	for i, l := range []Level{LevelF, LevelFK, LevelFKS, LevelAll} {
		sess := Compile(m, Options{Level: l})
		stats := sess.Explore()
		if i > 0 && stats.WiredBatchUs > prev*1.02 {
			t.Fatalf("level %s wired time %v worse than previous %v", l, stats.WiredBatchUs, prev)
		}
		prev = stats.WiredBatchUs
	}
}

func TestLossRequiresEvalValues(t *testing.T) {
	m, _ := BuildModel("scrnn", ModelConfig{Batch: 2, Tiny: true})
	sess := Compile(m, Options{Level: LevelF})
	if _, err := sess.Loss(); err == nil {
		t.Fatal("Loss without EvalValues should error")
	}
}

func TestTrainingThroughPublicAPI(t *testing.T) {
	m, _ := BuildModel("scrnn", ModelConfig{Batch: 2, Tiny: true})
	sess := Compile(m, Options{Level: LevelFK, EvalValues: true, LearningRate: 0.1})
	// Each step draws a fresh mini-batch, so compare averaged windows.
	var early, late float64
	const steps, window = 80, 10
	for i := 0; i < steps; i++ {
		loss, err := sess.Loss()
		if err != nil {
			t.Fatal(err)
		}
		if i < window {
			early += loss
		}
		if i >= steps-window {
			late += loss
		}
	}
	if late >= early {
		t.Fatalf("training did not reduce loss: avg %v -> %v", early/window, late/window)
	}
}

func TestUpdateTreeRendering(t *testing.T) {
	m, _ := BuildModel("stackedlstm", ModelConfig{Batch: 2, Tiny: true})
	sess := Compile(m, Options{Level: LevelAll})
	tree := sess.UpdateTree()
	for _, want := range []string{"chunk", "lib", "(parallel)"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestCustomModelBuilder(t *testing.T) {
	mb := NewModelBuilder("toy")
	x := mb.Input("x", 4, 8)
	targets := mb.Input("targets", 4, 1)
	w1 := mb.Param("w1", 8, 16)
	w2 := mb.Param("w2", 8, 16)
	wo := mb.Param("wo", 16, 5)
	bias := mb.Param("b", 1, 16)
	var logits Tensor
	mb.InScope("layer", func() {
		h := mb.Add(mb.MatMul(x, w1), mb.MatMul(x, w2))
		h = mb.Tanh(mb.AddBias(h, bias))
		h = mb.Mul(h, mb.Sigmoid(h))
		logits = mb.MatMul(h, wo)
	})
	mb.CrossEntropyLoss(logits, targets)
	m, err := mb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if m.GEMMs() < 3 {
		t.Fatalf("GEMMs = %d", m.GEMMs())
	}
	sess := Compile(m, Options{Level: LevelAll, EvalValues: true, LearningRate: 0.2})
	stats := sess.Explore()
	if stats.Configs <= 0 || stats.Speedup <= 0 {
		t.Fatalf("bad stats %+v", stats)
	}
	loss, err := sess.Loss()
	if err != nil || loss <= 0 {
		t.Fatalf("loss = %v, %v", loss, err)
	}
}

func TestCustomModelBuilderErrors(t *testing.T) {
	mb := NewModelBuilder("noloss")
	mb.Input("x", 2, 2)
	if _, err := mb.Finish(); err == nil {
		t.Fatal("model without loss accepted")
	}
	mb2 := NewModelBuilder("twice")
	x := mb2.Input("x", 2, 2)
	tg := mb2.Input("t", 2, 1)
	mb2.CrossEntropyLoss(mb2.MatMul(x, mb2.Param("w", 2, 3)), tg)
	if _, err := mb2.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := mb2.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
}

func TestRecurrentCustomModel(t *testing.T) {
	// A small unrolled recurrence through the public API must survive the
	// whole pipeline with value evaluation (schedule-dependency check).
	mb := NewModelBuilder("rnn")
	const b, d, T = 2, 6, 3
	wx := mb.Param("wx", d, d)
	wh := mb.Param("wh", d, d)
	wo := mb.Param("wo", d, 4)
	h := mb.Zeros("h0", b, d)
	var tops []Tensor
	for t0 := 0; t0 < T; t0++ {
		t0 := t0
		x := mb.Input("x", b, d)
		mb.InScope("cell", func() {
			mb.AtStep(t0, func() {
				h = mb.Tanh(mb.Add(mb.MatMul(x, wx), mb.MatMul(h, wh)))
			})
		})
		tops = append(tops, h)
	}
	logits := mb.MatMul(mb.ConcatRows(tops...), wo)
	mb.CrossEntropyLoss(logits, mb.Input("targets", b*T, 1))
	m, err := mb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sess := Compile(m, Options{Level: LevelAll, EvalValues: true})
	sess.Explore()
	if _, err := sess.Loss(); err != nil {
		t.Fatal(err)
	}
}

func TestAutoboostOptionStillConverges(t *testing.T) {
	m, _ := BuildModel("scrnn", ModelConfig{Batch: 2, Tiny: true})
	sess := Compile(m, Options{Level: LevelFK, Autoboost: true})
	stats := sess.Explore()
	if stats.Configs <= 0 {
		t.Fatal("no exploration under autoboost")
	}
}

func TestBucketHelpers(t *testing.T) {
	ls := SampleSentenceLengths(5000, 42)
	bs := LengthBuckets(ls, 5)
	if len(bs) != 5 {
		t.Fatalf("buckets = %v", bs)
	}
	if BucketFor(bs, 1) != bs[0] {
		t.Fatal("short sentence should map to first bucket")
	}
}

func TestCompilePanicsOnUnknownLevel(t *testing.T) {
	m, _ := BuildModel("scrnn", ModelConfig{Batch: 2, Tiny: true})
	defer func() {
		if recover() == nil {
			t.Fatal("bad level accepted")
		}
	}()
	Compile(m, Options{Level: "nope"})
}

func TestWarmStartThroughPublicAPI(t *testing.T) {
	m, _ := BuildModel("scrnn", ModelConfig{Batch: 2, Tiny: true})
	cold := Compile(m, Options{Level: LevelFKS})
	coldStats := cold.Explore()
	var buf bytes.Buffer
	if err := cold.SaveProfile(&buf); err != nil {
		t.Fatal(err)
	}
	m2, _ := BuildModel("scrnn", ModelConfig{Batch: 2, Tiny: true})
	warm := Compile(m2, Options{Level: LevelFKS, ProfileSnapshot: &buf})
	warmStats := warm.Explore()
	if warmStats.Configs != 0 {
		t.Fatalf("warm start explored %d configs", warmStats.Configs)
	}
	if warmStats.WiredBatchUs != coldStats.WiredBatchUs {
		t.Fatalf("warm wired %v != cold wired %v", warmStats.WiredBatchUs, coldStats.WiredBatchUs)
	}
}

func TestModelBuilderFullOpSurface(t *testing.T) {
	// Exercise every public builder operator in one model and push it
	// through the full pipeline with values on.
	mb := NewModelBuilder("kitchen")
	const b, v, e = 3, 9, 6
	ids := mb.Input("ids", b, 1)
	table := mb.Param("emb", v, e)
	x := mb.Lookup(table, ids)
	w := mb.Param("w", e, e)
	h := mb.ReLU(mb.MatMul(x, w))
	h = mb.Add(h, mb.Scale(x, 0.5))
	h = mb.Mul(h, mb.Softmax(h))
	h = mb.Sub(h, mb.Sigmoid(x))
	wide := mb.ConcatCols(h, x)
	h = mb.SliceCols(wide, 0, e)
	h = mb.Add(h, mb.Zeros("z", b, e))
	stack := mb.ConcatRows(h, h)
	logits := mb.MatMul(stack, mb.Param("wo", e, 4))
	mb.CrossEntropyLoss(logits, mb.Input("targets", 2*b, 1))
	m, err := mb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sess := Compile(m, Options{Level: LevelAll, EvalValues: true})
	sess.Explore()
	loss, err := sess.Loss()
	if err != nil || loss <= 0 {
		t.Fatalf("loss %v err %v", loss, err)
	}
}

func TestGEMMFreeCustomModel(t *testing.T) {
	// A model with a single GEMM and no fusion surface still compiles;
	// the update tree may be tiny but the pipeline must hold together.
	mb := NewModelBuilder("mini")
	x := mb.Input("x", 2, 3)
	logits := mb.MatMul(mb.Tanh(x), mb.Param("w", 3, 2))
	mb.CrossEntropyLoss(logits, mb.Input("t", 2, 1))
	m, err := mb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sess := Compile(m, Options{Level: LevelFK})
	sess.Explore()
	if sess.Step() <= 0 {
		t.Fatal("no simulated time")
	}
	_ = sess.UpdateTree()
}

func TestStreamsOptionPlumbs(t *testing.T) {
	m, _ := BuildModel("sublstm", ModelConfig{Batch: 2, Tiny: true})
	sess := Compile(m, Options{Level: LevelFKS, Streams: 4})
	sess.Explore()
	if got := sess.Internal().Runner.Dev.NumStreams(); got < 4 {
		t.Fatalf("streams = %d", got)
	}
}

func TestCompileMultiWorker(t *testing.T) {
	m, err := BuildModel("sublstm", ModelConfig{Batch: 2, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := Compile(m, Options{Level: LevelFK, Workers: 4, Fabric: "nvlink1"})
	stats := sess.Explore()
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 4 {
		t.Fatalf("Workers = %d", stats.Workers)
	}
	if stats.CommUs <= 0 {
		t.Fatalf("no gradient exchange measured: %+v", stats)
	}
	// The update tree must show the comm dimension.
	for _, want := range []string{"comm.bucket_kb", "comm.place"} {
		if !strings.Contains(sess.UpdateTree(), want) {
			t.Fatalf("update tree missing %s:\n%s", want, sess.UpdateTree())
		}
	}
	// Default fabric resolves; an unknown one panics.
	if s2 := Compile(m, Options{Level: LevelFK, Workers: 2}); s2 == nil {
		t.Fatal("default fabric failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown fabric did not panic")
		}
	}()
	Compile(m, Options{Workers: 2, Fabric: "token-ring"})
}
