package baselines

import (
	"testing"

	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/tensor"
)

func tinyModel(t *testing.T, name string) *models.Model {
	t.Helper()
	build, ok := models.Get(name)
	if !ok {
		t.Fatalf("model %q", name)
	}
	return build(models.TinyConfig(name, 2))
}

func TestNativeValueMatchesReference(t *testing.T) {
	for _, name := range models.Names() {
		m := tinyModel(t, name)
		in := m.MakeInputs(3)
		res := RunNative(m.G, gpusim.NewDevice(gpusim.P100()), PyTorch(), in, nil)
		ref := m.G.Run(in, nil)
		if tensor.MaxAbsDiff(res.Env[m.G.Loss], ref[m.G.Loss]) != 0 {
			t.Errorf("%s: native loss differs from reference", name)
		}
	}
}

func TestXLAValueMatchesReference(t *testing.T) {
	for _, name := range models.Names() {
		m := tinyModel(t, name)
		in := m.MakeInputs(4)
		res := RunXLA(m.G, gpusim.NewDevice(gpusim.P100()), in, nil)
		ref := m.G.Run(in, nil)
		if tensor.MaxAbsDiff(res.Env[m.G.Loss], ref[m.G.Loss]) != 0 {
			t.Errorf("%s: XLA loss differs from reference", name)
		}
	}
}

func TestFrameworkProfiles(t *testing.T) {
	if PyTorch().PerOpCPUUs <= TensorFlow().PerOpCPUUs {
		t.Fatal("eager PyTorch should cost more per op than graph-mode TF")
	}
	m := tinyModel(t, "scrnn")
	pyt := RunNative(m.G, gpusim.NewDevice(gpusim.P100()), PyTorch(), nil, nil)
	tf := RunNative(m.G, gpusim.NewDevice(gpusim.P100()), TensorFlow(), nil, nil)
	if pyt.TimeUs <= tf.TimeUs {
		t.Fatalf("PyTorch (%v) should be slower than TF (%v) on tiny graphs", pyt.TimeUs, tf.TimeUs)
	}
	if pyt.Kernels != tf.Kernels {
		t.Fatal("same graph, same kernel count expected")
	}
}

func TestNativeSkipsViewTransposes(t *testing.T) {
	m := tinyModel(t, "stackedlstm")
	res := RunNative(m.G, gpusim.NewDevice(gpusim.P100()), PyTorch(), nil, nil)
	if res.Kernels >= len(m.G.Nodes) {
		t.Fatalf("kernels %d >= nodes %d: views not skipped", res.Kernels, len(m.G.Nodes))
	}
}

func TestCuDNNCoverage(t *testing.T) {
	// Coverage must match the paper's tables: stacked LSTM and GNMT are
	// (at least partly) covered; the long-tail cells are not.
	covered := map[string]bool{
		"scrnn": false, "milstm": false, "sublstm": false,
		"stackedlstm": true, "gnmt": true,
	}
	for name, want := range covered {
		m := tinyModel(t, name)
		_, ok := RunCuDNN(m, gpusim.NewDevice(gpusim.P100()), PyTorch(), nil, nil)
		if ok != want {
			t.Errorf("RunCuDNN(%s) ok = %v, want %v", name, ok, want)
		}
	}
}

func TestIsStandardLSTMScope(t *testing.T) {
	cases := map[string]bool{
		"lstm0":     true,
		"lstm12":    true,
		"enc.lstm3": true,
		"dec.lstm0": true,
		"milstm":    false,
		"sublstm":   false,
		"sublstm0":  false,
		"lstm":      false,
		"head":      false,
		"xlstm0y":   false,
		"":          false,
	}
	for scope, want := range cases {
		if got := isStandardLSTMScope(scope); got != want {
			t.Errorf("isStandardLSTMScope(%q) = %v, want %v", scope, got, want)
		}
	}
}

func TestCuDNNBeatsNativeOnStackedLSTM(t *testing.T) {
	// The whole point of the hand-optimized kernels (§2.4): large speedup
	// on the covered model at paper scale.
	m := func() *models.Model {
		build, _ := models.Get("stackedlstm")
		return build(models.DefaultConfig("stackedlstm", 16))
	}()
	nat := RunNative(m.G, gpusim.NewDevice(gpusim.P100()), PyTorch(), nil, nil)
	cud, ok := RunCuDNN(m, gpusim.NewDevice(gpusim.P100()), PyTorch(), nil, nil)
	if !ok {
		t.Fatal("stacked LSTM not covered")
	}
	if cud.TimeUs >= nat.TimeUs {
		t.Fatalf("cuDNN (%v) not faster than native (%v)", cud.TimeUs, nat.TimeUs)
	}
	if cud.Kernels >= nat.Kernels {
		t.Fatalf("cuDNN launches %d kernels >= native %d", cud.Kernels, nat.Kernels)
	}
}

func TestCuDNNValueMatchesReference(t *testing.T) {
	m := tinyModel(t, "stackedlstm")
	in := m.MakeInputs(5)
	res, ok := RunCuDNN(m, gpusim.NewDevice(gpusim.P100()), PyTorch(), in, nil)
	if !ok {
		t.Fatal("not covered")
	}
	ref := m.G.Run(in, nil)
	if tensor.MaxAbsDiff(res.Env[m.G.Loss], ref[m.G.Loss]) != 0 {
		t.Fatal("cuDNN loss differs from reference")
	}
}

func TestXLAEmbeddingPathology(t *testing.T) {
	// §6.6: with embeddings present XLA is worse than native TF, because
	// every lookup bounces through the host; removing embeddings flips it.
	build, _ := models.Get("scrnn")
	cfg := models.DefaultConfig("scrnn", 16)
	withEmb := build(cfg)
	cfg.Embedding = false
	noEmb := build(cfg)

	tfWith := RunNative(withEmb.G, gpusim.NewDevice(gpusim.P100()), TensorFlow(), nil, nil)
	xlaWith := RunXLA(withEmb.G, gpusim.NewDevice(gpusim.P100()), nil, nil)
	if xlaWith.TimeUs <= tfWith.TimeUs {
		t.Fatalf("XLA with embeddings (%v) should lose to TF (%v)", xlaWith.TimeUs, tfWith.TimeUs)
	}

	tfNo := RunNative(noEmb.G, gpusim.NewDevice(gpusim.P100()), TensorFlow(), nil, nil)
	xlaNo := RunXLA(noEmb.G, gpusim.NewDevice(gpusim.P100()), nil, nil)
	if xlaNo.TimeUs >= tfNo.TimeUs {
		t.Fatalf("XLA without embeddings (%v) should beat TF (%v)", xlaNo.TimeUs, tfNo.TimeUs)
	}
}

func TestXLAFewerKernelsThanNative(t *testing.T) {
	m := tinyModel(t, "milstm")
	nat := RunNative(m.G, gpusim.NewDevice(gpusim.P100()), TensorFlow(), nil, nil)
	xla := RunXLA(m.G, gpusim.NewDevice(gpusim.P100()), nil, nil)
	if xla.Kernels >= nat.Kernels {
		t.Fatalf("XLA fused to %d kernels, native %d", xla.Kernels, nat.Kernels)
	}
}
