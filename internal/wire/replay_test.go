package wire

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/profile"
)

// replayConfig is a tiny session's configuration at the given worker
// count, warm-started from ix when it is not nil.
func replayConfig(workers int, ix *profile.Index) SessionConfig {
	cfg := SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetFKS),
		Runner:  RunnerConfig{PerOpCPUUs: 2},
		Index:   ix,
	}
	if workers > 1 {
		cfg.Options.CommAdapt = true
		cfg.Options.Workers = workers
		cfg.Comm = CommConfig{Workers: workers, BytesPerUs: 11000, LatencyUs: 8, Fabric: "pcie3"}
	}
	return cfg
}

// batchProfiles formats every rank's kernel profile of the batch just run.
// %v prints each float in its shortest form that parses back to it, so two
// equal strings hold bit-identical times.
func batchProfiles(s *Session) string { return fmt.Sprintf("%+v", s.collectProfiles()) }

// replays returns each rank's replayed-batch count.
func replays(s *Session) []int64 {
	out := []int64{s.Runner.Dev.BatchesReplayed()}
	for _, p := range s.Peers {
		out = append(out, p.Dev.BatchesReplayed())
	}
	return out
}

// TestWiredStepsReplay explores every zoo model at tiny scale on one and
// two workers, then runs 20 wired steps. Each step's kernel records on
// every rank equal those of a fresh session's first batch, warm-started
// from the explored profile, and every wired step but the first (which
// follows an exploring batch) replays the one before it.
func TestWiredStepsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the whole zoo twice; gpusim's differential test covers replay in the -short (race and coverage) runs")
	}
	for _, name := range models.Names() {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dw", name, workers), func(t *testing.T) {
				build, _ := models.Get(name)
				s := NewSession(build(models.TinyConfig(name, 2)), replayConfig(workers, nil))
				s.Explore()
				var buf bytes.Buffer
				if err := s.Ix.Save(&buf); err != nil {
					t.Fatal(err)
				}
				ix := profile.NewIndex()
				if err := ix.Load(&buf); err != nil {
					t.Fatal(err)
				}
				warm := NewSession(build(models.TinyConfig(name, 2)), replayConfig(workers, ix))
				if !warm.Done() {
					t.Fatal("the warm-started session explores")
				}
				warm.Step()
				want := batchProfiles(warm)
				before := replays(s)
				for step := 0; step < 20; step++ {
					s.Step()
					if got := batchProfiles(s); got != want {
						t.Fatalf("wired step %d:\n%s\nfresh session's first batch:\n%s", step, got, want)
					}
				}
				for rank, n := range replays(s) {
					if n-before[rank] < 19 {
						t.Errorf("rank %d replayed %d of 20 wired steps, want at least 19", rank, n-before[rank])
					}
				}
			})
		}
	}
	t.Run("xla", func(t *testing.T) {
		// The configuration baselines.RunXLA gives its runner: each
		// embedding lookup drains the device for a host transfer, so no
		// batch drains just once and none replays.
		build, _ := models.Get("sublstm")
		runner := func() *Runner {
			plan := enumerate.Enumerate(build(models.TinyConfig("sublstm", 2)).G, enumerate.Options{})
			return NewRunner(plan, gpusim.NewDevice(gpusim.P100()), RunnerConfig{PerOpCPUUs: 3, MaxFusion: true, EmbeddingHostTransfer: true})
		}
		fresh := runner()
		fresh.RunBatch(nil, nil)
		want := fmt.Sprintf("%+v", fresh.Dev.Profile(0))
		r := runner()
		for step := 0; step < 20; step++ {
			r.RunBatch(nil, nil)
			if got := fmt.Sprintf("%+v", r.Dev.Profile(0)); got != want {
				t.Fatalf("batch %d:\n%s\nfresh runner's first batch:\n%s", step, got, want)
			}
		}
		if n := r.Dev.BatchesReplayed(); n != 0 {
			t.Fatalf("the XLA runner replayed %d batches", n)
		}
	})
}

// TestPerturbedSessionsNeverReplay runs tiny two-worker SC-RNN sessions
// whose devices change kernel times on purpose — Autoboost jitter,
// straggler and throttle faults, a cost override — through exploration
// and 10 wired steps. No rank replays a batch, and the digest of every
// batch's kernel profiles is the one the event loop gave before replay
// existed.
func TestPerturbedSessionsNeverReplay(t *testing.T) {
	override := func(s *Session) {
		o := gpusim.CostOverride{ClassTimeFactors: map[string]float64{"gemm": 0.5}}
		s.Runner.Dev.SetCostOverride(o)
		for _, p := range s.Peers {
			p.Dev.SetCostOverride(o)
		}
	}
	// The digests were taken with the event loop alone, before replay.
	cases := []struct {
		name   string
		device func(*gpusim.Config)
		setup  func(*Session)
		digest string
	}{
		{"autoboost", func(c *gpusim.Config) { c.Autoboost = true }, nil,
			"d4a48185eee4307e7316da22d83af643560c771219890e9e26de8f0be3ad0b7a"},
		{"straggler", func(c *gpusim.Config) { c.Faults.StragglerProb = 0.05 }, nil,
			"b7f0b4c0e3636e470b5d96443cdf2168da5aed83f760b45b4f88ac5e9e4e8d60"},
		{"throttle", func(c *gpusim.Config) { c.Faults.ThrottleStartBatch = 20 }, nil,
			"b8a8784360daa27952dce8bb39d978804538b9aa31d13dd9cd0317efd72835cc"},
		{"override", nil, override,
			"b58895d81a791c21458b00b5d45fa18b5cbf7773c5494b4fddca247297c29ab9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := replayConfig(2, nil)
			if c.device != nil {
				c.device(&cfg.Device)
			}
			build, _ := models.Get("scrnn")
			s := NewSession(build(models.TinyConfig("scrnn", 2)), cfg)
			if c.setup != nil {
				c.setup(s)
			}
			h := sha256.New()
			for wired := 0; wired < 10; {
				if s.Done() {
					wired++
				}
				s.Step()
				fmt.Fprintln(h, batchProfiles(s))
			}
			for rank, n := range replays(s) {
				if n != 0 {
					t.Errorf("rank %d replayed %d batches", rank, n)
				}
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
				t.Errorf("%d batches digest to %s, want %s", s.Batches, got, c.digest)
			}
		})
	}
}
