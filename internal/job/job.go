// Package job owns the shape of a training job: which zoo model at which
// scale and batch, which adaptation level, how many streams, and how many
// data-parallel workers over which fabric. One Shape value lowers to the
// built model and the session configuration, and names the job in the
// profile store by its Signature, so every front end — the public astra
// API, the exploration service and the what-if checker's rebuild — compiles
// a shape the same way.
package job

import (
	"fmt"
	"sort"
	"strings"

	"astra/internal/distsim"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/wire"
)

// Model scales: Tiny is the unit-test sizing, Default the paper's §6.1
// evaluation sizing.
const (
	Tiny    = "tiny"
	Default = "default"
)

// levels maps each adaptation level to its enumeration preset, sorted by
// name (the order error messages list them in).
var levels = []struct {
	name   string
	preset enumerate.Preset
}{
	{"All", enumerate.PresetAll},
	{"F", enumerate.PresetF},
	{"FK", enumerate.PresetFK},
	{"FKS", enumerate.PresetFKS},
}

// Levels returns the adaptation level names, sorted.
func Levels() []string {
	out := make([]string, len(levels))
	for i, l := range levels {
		out[i] = l.name
	}
	return out
}

// Preset returns the enumeration preset of an adaptation level.
func Preset(level string) (enumerate.Preset, bool) {
	for _, l := range levels {
		if l.name == level {
			return l.preset, true
		}
	}
	return "", false
}

// LevelOf returns the adaptation level whose preset is p.
func LevelOf(p enumerate.Preset) (string, bool) {
	for _, l := range levels {
		if l.preset == p {
			return l.name, true
		}
	}
	return "", false
}

// Fabrics returns the interconnect names, sorted.
func Fabrics() []string {
	var out []string
	for _, ic := range distsim.Fabrics() {
		out = append(out, ic.Name)
	}
	sort.Strings(out)
	return out
}

// fabric resolves an interconnect name; the empty name is the default,
// PCIe 3.
func fabric(name string) (distsim.Interconnect, bool) {
	if name == "" {
		return distsim.PCIe(), true
	}
	return distsim.FabricByName(name)
}

// Shape is everything about a job that changes what its exploration
// measures.
type Shape struct {
	// Model is a zoo model name (models.Names), Scale its sizing (Tiny or
	// Default) and Batch the per-device mini-batch size.
	Model string
	Scale string
	Batch int
	// Level selects the adaptation dimensions (Levels).
	Level string
	// Streams overrides the preset's stream count (0 keeps the preset's).
	Streams int
	// Workers is the data-parallel degree and Fabric the interconnect of
	// its gradient exchange (Fabrics; empty for one worker).
	Workers int
	Fabric  string
}

// Normalize validates the shape's names and worker count and applies the
// shape's own defaults: at two or more workers the fabric defaults to
// pcie3, and one worker has no fabric. Error messages name the valid
// choices and carry no package prefix, so each front end can frame them.
func (s Shape) Normalize() (Shape, error) {
	if _, ok := models.Get(s.Model); !ok {
		return Shape{}, fmt.Errorf("unknown model %q (valid models: %s)", s.Model, strings.Join(models.Names(), ", "))
	}
	if s.Scale != Default && s.Scale != Tiny {
		return Shape{}, fmt.Errorf("unknown scale %q (valid scales: %s, %s)", s.Scale, Default, Tiny)
	}
	if _, ok := Preset(s.Level); !ok {
		return Shape{}, fmt.Errorf("unknown level %q (valid levels: %s)", s.Level, strings.Join(Levels(), ", "))
	}
	if s.Workers < 1 {
		return Shape{}, fmt.Errorf("workers %d out of range (valid: 1 or more)", s.Workers)
	}
	ic, ok := fabric(s.Fabric)
	if !ok {
		return Shape{}, fmt.Errorf("unknown fabric %q (valid fabrics: %s)", s.Fabric, strings.Join(Fabrics(), ", "))
	}
	s.Fabric = ""
	if s.Workers >= 2 {
		s.Fabric = ic.Name
	}
	return s, nil
}

// Signature is the shape's identity in the profile store. It doubles as
// the base profile context namespacing the job's keys, so it must never be
// a string prefix of a different signature: the ';' after every field
// guarantees that (batch=1; vs batch=12; differ at the ';').
func (s Shape) Signature() string {
	return fmt.Sprintf("model=%s;scale=%s;batch=%d;level=%s;streams=%d;workers=%d;fabric=%s;",
		s.Model, s.Scale, s.Batch, s.Level, s.Streams, s.Workers, s.Fabric)
}

// Build constructs the training graph of a normalized shape.
func (s Shape) Build() *models.Model {
	build, ok := models.Get(s.Model)
	if !ok {
		panic(fmt.Sprintf("job: unknown model %q", s.Model))
	}
	if s.Scale == Tiny {
		return build(models.TinyConfig(s.Model, s.Batch))
	}
	return build(models.DefaultConfig(s.Model, s.Batch))
}

// SessionConfig lowers the shape's level, streams, workers and fabric to a
// session on a P100 with 2 µs of per-op dispatch CPU. It panics on a level
// or fabric name Normalize rejects; the caller adds its index, profile
// context, prior and any device settings.
func (s Shape) SessionConfig() wire.SessionConfig {
	preset, ok := Preset(s.Level)
	if !ok {
		panic(fmt.Sprintf("job: unknown level %q", s.Level))
	}
	opts := enumerate.PresetOptions(preset)
	if s.Streams > 0 {
		opts.NumStreams = s.Streams
	}
	comm := s.Comm()
	if comm.Workers >= 2 {
		opts.CommAdapt = true
		opts.Workers = comm.Workers
	}
	return wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: opts,
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
		Comm:    comm,
	}
}

// Comm is the shape's gradient exchange: the ring over Workers devices on
// Fabric (pcie3 when empty), or the zero config for one worker. It panics
// on a fabric name Normalize rejects.
func (s Shape) Comm() wire.CommConfig {
	if s.Workers < 2 {
		return wire.CommConfig{}
	}
	ic, ok := fabric(s.Fabric)
	if !ok {
		panic(fmt.Sprintf("job: unknown fabric %q", s.Fabric))
	}
	return wire.CommConfig{
		Workers:    s.Workers,
		BytesPerUs: ic.BytesPerUs,
		LatencyUs:  ic.LatencyUs,
		Fabric:     ic.Name,
	}
}
