package main

import (
	"fmt"
	"strconv"
	"strings"

	"astra/internal/distsim"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/profile"
	"astra/internal/wire"
)

// shape is one job the benchmark compiles: a zoo model at a batch size and
// adaptation level, on one or more simulated workers.
type shape struct {
	model   string
	batch   int
	preset  enumerate.Preset
	streams int // 0 keeps the preset's stream count
	workers int // 2 or more runs data-parallel over PCIe 3
	tiny    bool
}

func (s shape) build() *models.Model {
	b, ok := models.Get(s.model)
	if !ok {
		panic("perfbench: unknown model " + s.model)
	}
	if s.tiny {
		return b(models.TinyConfig(s.model, s.batch))
	}
	return b(models.DefaultConfig(s.model, s.batch))
}

// sessionConfig is the configuration astra.Compile and the serve layer
// give such a job.
func (s shape) sessionConfig(ix *profile.Index) wire.SessionConfig {
	opts := enumerate.PresetOptions(s.preset)
	if s.streams > 0 {
		opts.NumStreams = s.streams
	}
	var comm wire.CommConfig
	if s.workers >= 2 {
		ic := distsim.PCIe()
		comm = wire.CommConfig{Workers: s.workers, BytesPerUs: ic.BytesPerUs, LatencyUs: ic.LatencyUs, Fabric: ic.Name}
		opts.CommAdapt = true
		opts.Workers = s.workers
	}
	return wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: opts,
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
		Comm:    comm,
		Index:   ix,
	}
}

// outcome is what a converged session must reproduce exactly on every run:
// its exploration trial count and its wired mini-batch time.
type outcome struct {
	name    string
	trials  int
	wiredUs float64
}

func digest(outs []outcome) string {
	parts := make([]string, len(outs))
	for i, o := range outs {
		parts[i] = fmt.Sprintf("%s:trials=%d:wired_us=%s", o.name, o.trials, strconv.FormatFloat(o.wiredUs, 'g', -1, 64))
	}
	return strings.Join(parts, " ")
}

// checkSession fails the run when a converged session reports an error or
// a verifier finding.
func checkSession(t *tally, name string, s *wire.Session) {
	t.check(s.Err() == nil, "%s: session error: %v", name, s.Err())
	t.check(s.VerifyFindings == 0, "%s: %d verifier findings", name, s.VerifyFindings)
}
