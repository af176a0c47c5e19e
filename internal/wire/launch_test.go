package wire

import (
	"slices"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/kernels"
	"astra/internal/models"
	"astra/internal/verify"
)

// resolveFresh resolves prog's launch list from scratch: every unit op
// through the kernels package under its unit's current library, every
// ring step through the per-step formula.
func resolveFresh(r *Runner, prog *verify.Schedule) []gpusim.KernelSpec {
	var out []gpusim.KernelSpec
	c := r.Cfg.Comm
	for _, pos := range prog.Issue {
		op := prog.Streams[pos.Stream][pos.Index]
		u := op.Unit
		if u == nil {
			if op.Kind == verify.OpKernel {
				out = append(out, gpusim.KernelSpec{
					Name:       op.Name,
					Tiles:      1,
					TileTimeUs: float64(prog.Buckets[op.Bucket].Bytes)/float64(c.Workers)/c.BytesPerUs + c.LatencyUs,
					SetupUs:    0.5,
				})
			}
			continue
		}
		lib := kernels.CuBLAS
		if v := r.Plan.KernelVars[u]; v != nil {
			lib = kernels.Library(v.Current())
		}
		switch {
		case u.Kind == enumerate.UnitSingle:
			out = append(out, kernels.ForNode(u.Nodes[0], lib))
		case u.Kind == enumerate.UnitEWChain:
			elems := 0
			for _, n := range u.Nodes {
				elems = max(elems, n.Out.Shape.NumElements())
			}
			out = append(out, kernels.FusedElementwise(len(u.Nodes), elems))
		case op.Members == 0:
			out = append(out, kernels.Elementwise("add", u.Group.GEMMs[0].Out.Shape.NumElements()))
		case op.Kind == verify.OpCopy:
			side := 1
			if u.Group.Kind == enumerate.SharedRight {
				side = 0
			}
			var bytes int64
			for _, m := range u.Group.GEMMs[op.First : op.First+op.Members] {
				bytes += int64(m.Inputs[side].Shape.NumElements()) * 8
			}
			out = append(out, kernels.Copy(bytes))
		case op.Members == 1:
			out = append(out, kernels.ForNode(u.Group.GEMMs[op.First], lib))
		default:
			var s kernels.GEMMShape
			for i, m := range u.Group.GEMMs[op.First : op.First+op.Members] {
				rows, inner, cols := m.Inputs[0].Shape.Rows(), m.Inputs[0].Shape.Cols(), m.Inputs[1].Shape.Cols()
				switch {
				case i == 0:
					s = kernels.GEMMShape{M: rows, K: inner, N: cols}
				case u.Group.Kind == enumerate.SharedLeft:
					s.N += cols
				case u.Group.Kind == enumerate.SharedRight:
					s.M += rows
				default: // ladder
					s.K += inner
				}
			}
			out = append(out, kernels.GEMM(lib, s))
		}
	}
	return out
}

// checkLaunchList fails unless the launch list the runner's next batch
// issues equals a from-scratch resolution of the program it belongs to.
func checkLaunchList(t *testing.T, what string, r *Runner, batch int) {
	t.Helper()
	prog, launches := r.issued()
	if want := resolveFresh(r, prog); !slices.Equal(launches, want) {
		i := 0
		for i < min(len(launches), len(want)) && launches[i] == want[i] {
			i++
		}
		t.Fatalf("%s batch %d: launch list (%d specs) departs from its program's resolution (%d specs) at spec %d",
			what, batch, len(launches), len(want), i)
	}
}

// TestLaunchListMatchesProgram steps whole explorations — every zoo model,
// a 2-worker shape with explored gradient buckets, and the XLA baseline's
// runner — and checks before every batch that the launch list the runner
// reuses across lowerings is exactly what resolving its program afresh
// gives.
func TestLaunchListMatchesProgram(t *testing.T) {
	explore := func(t *testing.T, what string, s *Session) {
		for batch := 0; ; batch++ {
			checkLaunchList(t, what, s.Runner, batch)
			if s.Done() {
				return
			}
			s.Step()
		}
	}
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			explore(t, name, tinySession(t, name, enumerate.PresetAll, false))
		})
	}
	t.Run("2-worker", func(t *testing.T) {
		s := commSession(t, 2, true, nil)
		if s.Exp == nil || s.Plan.CommBucketVar == nil {
			t.Fatal("2-worker session explores no gradient buckets")
		}
		explore(t, "2-worker sublstm", s)
	})
	t.Run("xla", func(t *testing.T) {
		// The configuration baselines.RunXLA gives its runner.
		build, _ := models.Get("sublstm")
		plan := enumerate.Enumerate(build(models.TinyConfig("sublstm", 2)).G, enumerate.Options{})
		r := NewRunner(plan, gpusim.NewDevice(gpusim.P100()), RunnerConfig{PerOpCPUUs: 3, MaxFusion: true, EmbeddingHostTransfer: true})
		checkLaunchList(t, "xla", r, 0)
		if res := r.RunBatch(nil, nil); res.Kernels != len(r.launches) {
			t.Fatalf("xla batch launched %d kernels from a %d-spec launch list", res.Kernels, len(r.launches))
		}
	})
}

// TestPeersIssueVerifiedProgram: a session's peers issue rank 0's program
// — the one verifyStep checks — rather than lowering copies of their own,
// and with noise off every rank's device runs the same kernels in every
// batch of the exploration and after it.
func TestPeersIssueVerifiedProgram(t *testing.T) {
	s := commSession(t, 2, true, nil)
	for batch := 0; batch == 0 || !s.Done() || s.wiredBatches < 2; batch++ {
		prog := s.Runner.Program()
		for i, p := range s.Peers {
			if p.Program() != prog {
				t.Fatalf("batch %d: rank %d issues its own program, not rank 0's", batch, i+1)
			}
		}
		s.Step()
		want := s.Runner.Dev.Records()
		for i, p := range s.Peers {
			got := p.Dev.Records()
			if len(got) != len(want) {
				t.Fatalf("batch %d: rank %d ran %d kernels, rank 0 %d", batch, i+1, len(got), len(want))
			}
			for k, g := range got {
				w := want[k]
				if g.Name != w.Name || g.Tiles != w.Tiles || g.TileTimeUs != w.TileTimeUs {
					t.Fatalf("batch %d kernel %d: rank %d ran %s (%d tiles of %g us), rank 0 %s (%d tiles of %g us)",
						batch, k, i+1, g.Name, g.Tiles, g.TileTimeUs, w.Name, w.Tiles, w.TileTimeUs)
				}
			}
		}
	}
	if s.Runner.lowerings == 0 {
		t.Fatal("rank 0 counted no lowerings")
	}
	for i, p := range s.Peers {
		if p.lowerings != 0 {
			t.Fatalf("rank %d lowered %d programs of its own", i+1, p.lowerings)
		}
	}
}
