package adapt_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"astra/internal/adapt"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/wire"
)

// TestContextsMatchFreshWalk steps whole explorations — every zoo model at
// tiny scale with every adaptation on, a 2-worker shape with explored
// gradient buckets, and a service job's namespaced root context — and
// after every trial compares each variable's context and profile keys
// with a fresh concatenating walk. A drift thaw then re-explores
// each one under the same contexts, which the explorer's content-keyed
// memo must serve without invalidation. The final profile snapshot's
// sha256 is pinned to the one the explorer saved when it rebuilt every
// context string on every trial. The XLA configuration explores nothing:
// its plan has no tree to key.
func TestContextsMatchFreshWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every zoo model twice")
	}
	session := func(model string, opts enumerate.Options, workers int, base string) *wire.Session {
		build, _ := models.Get(model)
		opts.Workers = workers
		cfg := wire.SessionConfig{
			Device:         gpusim.P100(),
			Options:        opts,
			Runner:         wire.RunnerConfig{PerOpCPUUs: 2},
			ProfileContext: base,
		}
		if workers > 1 {
			cfg.Comm = wire.CommConfig{Workers: workers, BytesPerUs: 11000, LatencyUs: 8, Fabric: "pcie3"}
		}
		return wire.NewSession(build(models.TinyConfig(model, 2)), cfg)
	}
	explore := func(t *testing.T, s *wire.Session, wantSum string) {
		if s.Exp == nil {
			t.Fatal("no explorer")
		}
		trial := 0
		run := func() {
			for ; ; trial++ {
				adapt.CheckFreshContexts(t, t.Name(), s.Exp, trial)
				if s.Done() {
					return
				}
				s.Step()
			}
		}
		run()
		s.Exp.Thaw()
		run()
		var snap bytes.Buffer
		if err := s.Ix.Save(&snap); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(snap.Bytes())); got != wantSum {
			t.Errorf("final profile snapshot after %d trials has sha256 %s, want %s", trial, got, wantSum)
		}
	}
	all := enumerate.PresetOptions(enumerate.PresetAll)
	sums := map[string]string{
		"attlstm":     "48e3a7e3a4ca237fb45366f0f1e668db2e0d91665e27c257c0ffc722e564513c",
		"gnmt":        "7f7afc93476be68a97c1d2add914a5907527ab38d2408d1aad0730ff0d5cc56e",
		"milstm":      "83dc1e7e4781fa57a720b8c57e88f3771356c60e44a1161aebf7a9ae65d72de2",
		"rhn":         "61273edd85cbca36a4375292740802e6570dbd435bd2113a46194833c5ca960c",
		"scrnn":       "be452bc903b646d6a411f35902ce98403d6dd628f162fbb276e9b031987a98c6",
		"stackedlstm": "ff30c36b9122fd9f1866e0aebfa8c44f6af3f6e21fe3c4465dc0251b96f550ef",
		"sublstm":     "964046e6d56ea0cebbc59e13010016cb2a75bbe6a0c5ec1f2af128ea9acc8a41",
	}
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) { explore(t, session(name, all, 1, ""), sums[name]) })
	}
	t.Run("2-worker", func(t *testing.T) {
		opts := enumerate.PresetOptions(enumerate.PresetFK)
		opts.CommAdapt = true
		explore(t, session("sublstm", opts, 2, ""), "88d1d856226bd63e81ad99d6c0a8cbb6b61d4ff6bf7c16aca7db96b29cdc91b0")
	})
	t.Run("namespaced", func(t *testing.T) {
		explore(t, session("sublstm", all, 1, "job:sublstm/tiny/b2/Astra_all"), "d4cb00eb7338020a72dfebde3be93a5bd6d641a7791c25385ffb28400f7fbbf2")
	})
	t.Run("xla", func(t *testing.T) {
		// The configuration baselines.RunXLA gives its runner.
		build, _ := models.Get("sublstm")
		if plan := enumerate.Enumerate(build(models.TinyConfig("sublstm", 2)).G, enumerate.Options{}); plan.Tree != nil {
			t.Fatalf("the XLA configuration explores %d variables", len(plan.Tree.Vars()))
		}
	})
}
