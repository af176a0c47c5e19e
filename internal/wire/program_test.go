package wire

import (
	"errors"
	"strings"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/verify"
)

// bindSpreadStreams drives every stream variable to its last (most
// spread-out) choice so the program genuinely uses several streams.
func bindSpreadStreams(p *enumerate.Plan) {
	for _, v := range p.StreamVars { // lint:ok map-range independent per-variable writes
		v.SetChoice(len(v.Labels) - 1)
	}
}

// dropWait turns the wait at pos into an inert record of a fresh event.
func dropWait(s *verify.Schedule, pos verify.Pos) {
	s.Streams[pos.Stream][pos.Index] = verify.Op{Kind: verify.OpRecord, Name: "dropped-wait", Event: s.NumEvents, Bucket: -1}
	s.NumEvents++
}

func reports(r *verify.Report, check string) bool {
	for _, c := range r.Checks() {
		if c == check {
			return true
		}
	}
	return false
}

// TestSessionChecksRunnerProgram corrupts the program the runner is about
// to issue and requires the session's next Step to report it: the checker
// sees the program the device runs, not a model of it.
func TestSessionChecksRunnerProgram(t *testing.T) {
	s := tinySession(t, "sublstm", enumerate.PresetAll, false)
	p := s.Plan
	if len(p.StreamVars) == 0 {
		t.Fatal("plan has no stream variables")
	}
	bindSpreadStreams(p)
	prog := s.Runner.Program()
	n := s.Runner.lowerings
	if s.Runner.Program() != prog || s.Runner.lowerings != n {
		t.Fatal("an unchanged binding lowered a new program")
	}
	v := p.Tree.Vars()[0]
	c := v.Current()
	v.SetChoice((c + 1) % len(v.Labels))
	s.Runner.Program()
	if s.Runner.lowerings != n+1 {
		t.Fatalf("SetChoice left %d lowerings, want %d", s.Runner.lowerings, n+1)
	}
	v.SetChoice(c)
	prog = s.Runner.Program()

	// Find a cross-stream wait whose loss is a race, probing on scratch
	// lowerings of the same binding, then drop it from the runner's own.
	victim := verify.Pos{Stream: -1}
	for _, pos := range prog.Issue {
		if prog.Streams[pos.Stream][pos.Index].Kind != verify.OpWait {
			continue
		}
		probe := verify.BuildSchedule(p, verify.Spec{})
		dropWait(probe, pos)
		if reports(verify.CheckSchedule(p, probe, "probe"), "sched.race") {
			victim = pos
			break
		}
	}
	if victim.Stream < 0 {
		t.Fatal("no dropped wait produces a race")
	}
	dropWait(prog, victim)
	s.Step()
	var verr *verify.Error
	if !errors.As(s.Err(), &verr) {
		t.Fatalf("Step ran a racy program without a verify error: %v", s.Err())
	}
	if !reports(&verify.Report{Findings: verr.Findings}, "sched.race") {
		t.Fatalf("verify error lacks sched.race: %v", verr)
	}
}

// TestProgramEdgeCases pins the lowering's behaviour where the runner and
// a separate checker model could once disagree.
func TestProgramEdgeCases(t *testing.T) {
	fabric := CommConfig{Workers: 2, BytesPerUs: 11000, LatencyUs: 8}
	cases := []struct {
		name   string
		preset enumerate.Preset
		comm   CommConfig
		mutate func(t *testing.T, p *enumerate.Plan)
		panics string
		check  func(t *testing.T, r *Runner)
	}{
		{
			name:   "comm needs a fabric, not just workers",
			preset: enumerate.PresetFK,
			comm:   CommConfig{Workers: 2},
			check: func(t *testing.T, r *Runner) {
				prog := r.Program()
				if len(prog.Buckets) != 0 || prog.CommStream != -1 || len(prog.Streams) != 1 {
					t.Fatalf("program exchanges without a fabric: %d buckets, comm stream %d, %d streams",
						len(prog.Buckets), prog.CommStream, len(prog.Streams))
				}
				if res := r.RunBatch(nil, nil); res.CommKernels != 0 {
					t.Fatalf("batch launched %d comm kernels", res.CommKernels)
				}
			},
		},
		{
			name:   "malformed chunk label",
			preset: enumerate.PresetFK,
			mutate: func(t *testing.T, p *enumerate.Plan) {
				for _, grp := range p.Groups {
					if v := p.ChunkVars[grp]; v != nil {
						v.Labels[v.Current()] = "x"
						return
					}
				}
				t.Fatal("plan has no chunk variables")
			},
			panics: "bad chunk label",
		},
		{
			name:   "malformed bucket label",
			preset: enumerate.PresetFK,
			comm:   fabric,
			mutate: func(t *testing.T, p *enumerate.Plan) {
				v := p.CommBucketVar
				v.Labels[v.Current()] = "-4"
			},
			panics: "bad bucket label",
		},
		{
			name:   "producer not yet dispatched counts as the current stream",
			preset: enumerate.PresetAll,
			comm:   fabric,
			mutate: func(t *testing.T, p *enumerate.Plan) {
				bindSpreadStreams(p)
				prog := verify.BuildSchedule(p, verify.Spec{})
				var order []*enumerate.Unit
				for _, se := range p.Supers {
					for _, ep := range se.Epochs {
						order = append(order, ep.Units...)
					}
				}
				// aux runs off stream 0; fire, dispatched after it on
				// another stream, completes the bucket; late comes after.
				var aux, fire, late *enumerate.Unit
				for _, u := range order {
					st := prog.FirstOp[u].Stream
					switch {
					case aux == nil && st != 0:
						aux = u
					case aux != nil && fire == nil && st != prog.FirstOp[aux].Stream:
						fire = u
					case fire != nil:
						late = u
					}
					if late != nil {
						break
					}
				}
				if late == nil {
					t.Fatal("no unit triple spans two streams")
				}
				p.Grads = []enumerate.GradSite{{Unit: late, Bytes: 8}, {Unit: aux, Bytes: 8}, {Unit: fire, Bytes: 8}}
			},
			check: func(t *testing.T, r *Runner) {
				prog := r.Program()
				fire := prog.Buckets[0].Units[2]
				last := prog.LastOp[fire]
				for i, pos := range prog.Issue {
					if pos != last {
						continue
					}
					next := prog.Issue[i+1]
					if op := prog.Streams[next.Stream][next.Index]; op.Kind != verify.OpRecord || next.Stream != last.Stream {
						t.Fatalf("first readiness op is %s on stream %d, want a record on the current stream %d",
							op.Label(), next.Stream, last.Stream)
					}
					r.RunBatch(nil, nil)
					return
				}
				t.Fatal("bucket's firing unit not in the issue order")
			},
		},
	}
	build, _ := models.Get("sublstm")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := enumerate.PresetOptions(tc.preset)
			if tc.comm.Workers >= 2 {
				opts.CommAdapt = true
				opts.Workers = tc.comm.Workers
			}
			p := enumerate.Enumerate(build(models.TinyConfig("sublstm", 2)).G, opts)
			if tc.mutate != nil {
				tc.mutate(t, p)
			}
			defer func() {
				got := recover()
				if tc.panics == "" && got != nil {
					panic(got)
				}
				if tc.panics != "" {
					if msg, _ := got.(string); !strings.Contains(msg, tc.panics) {
						t.Fatalf("got panic %v, want one mentioning %q", got, tc.panics)
					}
				}
			}()
			r := NewRunner(p, gpusim.NewDevice(gpusim.P100()), RunnerConfig{PerOpCPUUs: 2, Profile: true, Comm: tc.comm})
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}
