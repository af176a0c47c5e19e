package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"astra/internal/gpusim"
	"astra/internal/graph"
	"astra/internal/tensor"
)

func TestTable1LibraryOrdering(t *testing.T) {
	// Table 1 of the paper: for 64x1024x4096 (forward fused GEMM),
	// OAI1 < cuBlas << OAI2; for 64x4096x1024 (backward GEMM),
	// cuBlas < OAI2 < OAI1. The best library is shape-dependent.
	fwd := GEMMShape{M: 64, K: 1024, N: 4096}
	cb, o1, o2 := GEMMTimeAloneUs(CuBLAS, fwd), GEMMTimeAloneUs(OpenAI1, fwd), GEMMTimeAloneUs(OpenAI2, fwd)
	if !(o1 < cb && cb < o2) {
		t.Fatalf("fwd %v: cublas=%.1f oai1=%.1f oai2=%.1f, want oai1 < cublas < oai2", fwd, cb, o1, o2)
	}
	if o2 < 3*cb {
		t.Fatalf("fwd: oai2 (%.1f) should be pathological vs cublas (%.1f)", o2, cb)
	}
	bwd := GEMMShape{M: 64, K: 4096, N: 1024}
	cb, o1, o2 = GEMMTimeAloneUs(CuBLAS, bwd), GEMMTimeAloneUs(OpenAI1, bwd), GEMMTimeAloneUs(OpenAI2, bwd)
	if !(cb < o2 && o2 < o1) {
		t.Fatalf("bwd %v: cublas=%.1f oai1=%.1f oai2=%.1f, want cublas < oai2 < oai1", bwd, cb, o1, o2)
	}
}

func TestSection32FusionAnomaly(t *testing.T) {
	// §3.2: two (256x1024)x(1024x1024) GEMMs on two streams beat the fused
	// (512x1024)x(1024x1024) GEMM, because cuBLAS crosses its large-M tile
	// cliff at M=512.
	cfg := gpusim.P100()
	small := GEMM(CuBLAS, GEMMShape{M: 256, K: 1024, N: 1024})

	par := gpusim.NewDevice(cfg)
	par.EnsureStreams(2)
	par.Launch(0, small)
	par.Launch(1, small)
	par.Synchronize()
	parEnd := 0.0
	for _, r := range par.Records() {
		parEnd = math.Max(parEnd, r.EndUs)
	}

	fusedDev := gpusim.NewDevice(cfg)
	f := fusedDev.Launch(0, GEMM(CuBLAS, GEMMShape{M: 512, K: 1024, N: 1024}))
	fusedDev.Synchronize()

	if parEnd >= f.EndUs {
		t.Fatalf("anomaly not reproduced: parallel ends %.1f, fused ends %.1f", parEnd, f.EndUs)
	}
	// The paper's magnitudes: 172us vs 211us — same order of magnitude and
	// a fused/parallel ratio between 1.1x and 2.5x.
	ratio := f.EndUs / parEnd
	if ratio < 1.05 || ratio > 2.5 {
		t.Fatalf("fused/parallel ratio %.2f outside plausible band", ratio)
	}
}

func TestFusionUsuallyWins(t *testing.T) {
	// Away from the cliff, fusing four small GEMMs into one is faster than
	// running them sequentially (launch amortization + utilization).
	cfg := gpusim.P100()
	seq := gpusim.NewDevice(cfg)
	for i := 0; i < 4; i++ {
		seq.Launch(0, GEMM(CuBLAS, GEMMShape{M: 64, K: 512, N: 512}))
	}
	seq.Synchronize()
	seqTime := seq.CPUTimeUs()

	fused := gpusim.NewDevice(cfg)
	fused.Launch(0, GEMM(CuBLAS, GEMMShape{M: 64, K: 512, N: 2048}))
	fused.Synchronize()
	fusedTime := fused.CPUTimeUs()

	if fusedTime >= seqTime {
		t.Fatalf("fusion did not win: fused %.1f vs sequential %.1f", fusedTime, seqTime)
	}
}

func TestGEMMTimeGrowsSublinearlyWithBatch(t *testing.T) {
	// Small mini-batches are latency-bound: batch 64 costs much less than
	// 8x batch 8 (this is why the paper's speedups shrink as batch grows).
	t8 := GEMMTimeAloneUs(CuBLAS, GEMMShape{M: 8, K: 1024, N: 1024})
	t64 := GEMMTimeAloneUs(CuBLAS, GEMMShape{M: 64, K: 1024, N: 1024})
	t256 := GEMMTimeAloneUs(CuBLAS, GEMMShape{M: 256, K: 1024, N: 1024})
	if t64 >= 8*t8 {
		t.Fatalf("batch 64 (%.1f) should cost less than 8x batch 8 (%.1f)", t64, t8)
	}
	if t256 <= t64 {
		t.Fatalf("batch 256 (%.1f) should cost more than batch 64 (%.1f)", t256, t64)
	}
}

func TestGEMMSpecSanityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		s := GEMMShape{M: 1 + rng.Intn(1024), K: 1 + rng.Intn(4096), N: 1 + rng.Intn(4096)}
		for _, lib := range Libraries() {
			spec := GEMM(lib, s)
			if spec.Tiles <= 0 || spec.TileTimeUs <= 0 || math.IsNaN(spec.TileTimeUs) {
				return false
			}
			// Wave time must never beat the machine's peak: total SM-time
			// >= flops / (perSM peak * SMs).
			smTime := float64(spec.Tiles) * spec.TileTimeUs
			if smTime*perSMFlopsUs < float64(s.Flops())*0.99 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBestLibraryIsShapeDependent(t *testing.T) {
	// At least two different libraries must win somewhere across a shape
	// sweep — otherwise kernel-selection adaptation would be pointless.
	winners := map[Library]bool{}
	for _, m := range []int{8, 64, 512} {
		for _, k := range []int{256, 1024, 4096} {
			for _, n := range []int{256, 1024, 4096} {
				best, bestT := CuBLAS, math.Inf(1)
				for _, lib := range Libraries() {
					if tt := GEMMTimeAloneUs(lib, GEMMShape{M: m, K: k, N: n}); tt < bestT {
						best, bestT = lib, tt
					}
				}
				winners[best] = true
			}
		}
	}
	if len(winners) < 2 {
		t.Fatalf("only %d library ever wins: %v", len(winners), winners)
	}
}

func TestElementwiseAndFusedElementwise(t *testing.T) {
	single := Elementwise("tanh", 100000)
	if want := (100000 + elemsPerTile - 1) / elemsPerTile; single.Tiles != want {
		t.Fatalf("tiles = %d, want %d", single.Tiles, want)
	}
	fused := FusedElementwise(4, 100000)
	if fused.TileTimeUs <= single.TileTimeUs {
		t.Fatal("fused chain should cost more per tile than one op")
	}
	if fused.TileTimeUs >= 4*single.TileTimeUs {
		t.Fatal("fused chain must be cheaper than 4 separate passes")
	}
	// End-to-end with launch overhead, fusion must win.
	cfg := gpusim.P100()
	seq := gpusim.NewDevice(cfg)
	for i := 0; i < 4; i++ {
		seq.Launch(0, single)
	}
	seq.Synchronize()
	f := gpusim.NewDevice(cfg)
	f.Launch(0, fused)
	f.Synchronize()
	if f.CPUTimeUs() >= seq.CPUTimeUs() {
		t.Fatalf("elementwise fusion lost: %v vs %v", f.CPUTimeUs(), seq.CPUTimeUs())
	}
}

func TestCopyScalesWithBytes(t *testing.T) {
	small := Copy(1 << 12)
	big := Copy(1 << 24)
	if big.Tiles <= small.Tiles {
		t.Fatal("copy tiles should grow with bytes")
	}
	if Copy(0).Tiles <= 0 {
		t.Fatal("zero-byte copy should still be a valid launch")
	}
}

func TestForNodeCoversAllModelOps(t *testing.T) {
	g := graph.New()
	b := graph.NewBuilder(g)
	x := g.Input("x", 4, 8)
	ids := g.Input("ids", 4, 1)
	tgt := g.Input("t", 4, 1)
	w := g.Param("w", graph.Zeros(8, 8))
	emb := g.Param("e", graph.Zeros(16, 8))
	h := b.MatMul(x, w)
	h = b.Add(h, x)
	h = b.Tanh(h)
	h = b.Mul(h, b.Sigmoid(x))
	h = b.Sub(h, b.Scale(x, 0.5))
	h = b.ReLU(h)
	h = b.AddBias(h, g.Param("b", graph.Zeros(1, 8)))
	_ = b.Softmax(h)
	_ = b.ConcatCols(h, h)
	_ = b.SliceCols(h, 0, 4)
	_ = b.Transpose(h)
	_ = b.Lookup(emb, ids)
	b.CrossEntropy(b.MatMul(h, g.Param("wo", graph.Zeros(8, 4))), tgt)
	for _, n := range g.Nodes {
		spec := ForNode(n, CuBLAS)
		if spec.Tiles <= 0 || spec.TileTimeUs <= 0 {
			t.Fatalf("bad spec for %v: %+v", n.Op, spec)
		}
		if n.Op == graph.OpMatMul && spec.Name[:5] != "gemm_" {
			t.Fatalf("matmul mapped to %q", spec.Name)
		}
	}
}

func TestForNodeGEMMUsesLibrary(t *testing.T) {
	g := graph.New()
	b := graph.NewBuilder(g)
	x := g.Input("x", 64, 1024)
	w := g.Param("w", graph.Zeros(1024, 4096))
	mm := b.MatMul(x, w)
	a := ForNode(mm.Producer, CuBLAS)
	o := ForNode(mm.Producer, OpenAI1)
	if a.Name == o.Name {
		t.Fatal("library not reflected in kernel")
	}
	if a.Tiles == o.Tiles && a.TileTimeUs == o.TileTimeUs {
		t.Fatal("libraries produced identical plans for a shape they should disagree on")
	}
}

func TestGEMMShapeString(t *testing.T) {
	s := GEMMShape{M: 64, K: 1024, N: 4096}
	if s.String() != "64x1024x4096" {
		t.Fatalf("String = %q", s.String())
	}
	if s.Flops() != 2*64*1024*4096 {
		t.Fatalf("Flops = %d", s.Flops())
	}
}

func TestBadShapesPanic(t *testing.T) {
	for _, s := range []GEMMShape{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("accepted %v", s)
				}
			}()
			GEMM(CuBLAS, s)
		}()
	}
}
