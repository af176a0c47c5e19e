package job

import (
	"strings"
	"testing"

	"astra/internal/enumerate"
)

func TestNormalizeFabricDefaults(t *testing.T) {
	base := Shape{Model: "scrnn", Scale: Tiny, Batch: 4, Level: "FK", Workers: 1}
	cases := []struct {
		workers    int
		fabric     string
		wantFabric string
	}{
		{1, "", ""},
		{1, "nvlink1", ""}, // validated, then dropped: one worker has no exchange
		{2, "", "pcie3"},
		{2, "nvlink1", "nvlink1"},
		{8, "pcie3", "pcie3"},
	}
	for _, tc := range cases {
		s := base
		s.Workers, s.Fabric = tc.workers, tc.fabric
		got, err := s.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if got.Fabric != tc.wantFabric {
			t.Errorf("workers %d fabric %q: normalized fabric %q, want %q", tc.workers, tc.fabric, got.Fabric, tc.wantFabric)
		}
		s.Fabric = got.Fabric
		if got != s {
			t.Errorf("Normalize changed more than the fabric: %+v -> %+v", s, got)
		}
	}
}

func TestNormalizeRejectsWithValidChoices(t *testing.T) {
	ok := Shape{Model: "sublstm", Scale: Default, Batch: 16, Level: "All", Workers: 2, Fabric: "pcie3"}
	cases := []struct {
		name string
		edit func(*Shape)
		want string
	}{
		{"model", func(s *Shape) { s.Model = "resnet50" }, `unknown model "resnet50" (valid models: attlstm, gnmt, milstm, rhn, scrnn, stackedlstm, sublstm)`},
		{"scale", func(s *Shape) { s.Scale = "" }, `unknown scale "" (valid scales: default, tiny)`},
		{"level", func(s *Shape) { s.Level = "FX" }, `unknown level "FX" (valid levels: All, F, FK, FKS)`},
		{"workers", func(s *Shape) { s.Workers = 0 }, "workers 0 out of range (valid: 1 or more)"},
		{"fabric", func(s *Shape) { s.Fabric = "infiniband" }, `unknown fabric "infiniband" (valid fabrics: nvlink1, pcie3)`},
		{"idle fabric", func(s *Shape) { s.Workers, s.Fabric = 1, "infiniband" }, `unknown fabric "infiniband"`},
	}
	for _, tc := range cases {
		s := ok
		tc.edit(&s)
		_, err := s.Normalize()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSignaturePinned(t *testing.T) {
	s := Shape{Model: "sublstm", Scale: Tiny, Batch: 4, Level: "FK", Streams: 0, Workers: 1}
	if got, want := s.Signature(), "model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;"; got != want {
		t.Fatalf("Signature() = %q, want %q", got, want)
	}
}

func TestLevelTable(t *testing.T) {
	for _, l := range Levels() {
		p, ok := Preset(l)
		if !ok {
			t.Fatalf("level %q has no preset", l)
		}
		if back, ok := LevelOf(p); !ok || back != l {
			t.Fatalf("LevelOf(%q) = %q, %v; want %q", p, back, ok, l)
		}
	}
	if _, ok := LevelOf(""); ok {
		t.Fatal("hand-assembled options (empty preset) mapped to a level")
	}
}

func TestSessionConfigLowering(t *testing.T) {
	single := Shape{Model: "scrnn", Scale: Tiny, Batch: 4, Level: "FKS", Streams: 4, Workers: 1}.SessionConfig()
	if single.Options.Preset != string(enumerate.PresetFKS) || single.Options.NumStreams != 4 ||
		single.Options.CommAdapt || single.Comm.Workers != 0 || single.Runner.PerOpCPUUs != 2 {
		t.Fatalf("single-worker lowering = %+v", single)
	}
	multi := Shape{Model: "scrnn", Scale: Tiny, Batch: 4, Level: "F", Workers: 4}.SessionConfig()
	if !multi.Options.CommAdapt || multi.Options.Workers != 4 || multi.Options.NumStreams != 0 ||
		multi.Comm.Workers != 4 || multi.Comm.Fabric != "pcie3" || multi.Comm.BytesPerUs != 11000 {
		t.Fatalf("multi-worker lowering = %+v", multi)
	}
	for _, bad := range []Shape{{Level: "nope"}, {Level: "F", Workers: 2, Fabric: "token-ring"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SessionConfig(%+v) did not panic", bad)
				}
			}()
			bad.SessionConfig()
		}()
	}
}

func TestBuildScales(t *testing.T) {
	tiny := Shape{Model: "scrnn", Scale: Tiny, Batch: 3}.Build()
	full := Shape{Model: "scrnn", Scale: Default, Batch: 3}.Build()
	if tiny.Cfg.Batch != 3 || full.Cfg.Batch != 3 || tiny.Cfg.Hidden >= full.Cfg.Hidden {
		t.Fatalf("tiny %+v vs default %+v", tiny.Cfg, full.Cfg)
	}
}
