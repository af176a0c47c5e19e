package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{2, 1}); got != 1.5 {
		t.Errorf("median of {2, 1} = %v, want 1.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of {7} = %v, want 7", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of no samples = %v, want NaN", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestAnother(t *testing.T) {
	const s = time.Second
	for _, c := range []struct {
		used     time.Duration
		segments int
		want     bool
	}{
		{0, 0, true},
		{4 * s, 1, true},  // 4 s used plus a 4 s mean fits 10 s
		{6 * s, 1, false}, // 6 s plus 6 s does not
		{9 * s, 9, true},  // 9 s plus 1 s fits exactly
	} {
		if got := another(10*s, c.used, c.segments); got != c.want {
			t.Errorf("another(10s, %v, %d) = %v, want %v", c.used, c.segments, got, c.want)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a, b := schedule(7, 0, 40), schedule(7, 0, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 0, 40)) {
		t.Fatal("two seeds gave the same schedule")
	}
}

// TestScheduleShapes checks the schedule's promises for the benchmark's
// segment size: one job in four is fresh, no fresh shape is shared between
// clients or repeated, every other job is a warm shape set-up seeds, and
// every seed schedules the same models and levels.
func TestScheduleShapes(t *testing.T) {
	warm := map[string]bool{}
	for _, j := range warmShapes() {
		warm[normalize(j).Signature()] = true
	}
	n := serveJobsPerClient(false)
	var kinds0 map[string]int
	for _, seed := range []int64{1, 2, 3} {
		owner := map[string]int{}
		kinds := map[string]int{}
		for c := 0; c < serveClients; c++ {
			jobs := schedule(seed, c, n)
			if len(jobs) != n {
				t.Fatalf("seed %d client %d: %d jobs, want %d", seed, c, len(jobs), n)
			}
			fresh := 0
			tenants := map[string]bool{}
			for _, pj := range jobs {
				j := normalize(pj.job)
				sig := j.Signature()
				tenants[j.Tenant] = true
				kinds[fmt.Sprintf("%s/%s/fresh=%v", j.Model, j.Level, pj.fresh)]++
				if !pj.fresh {
					if !warm[sig] {
						t.Errorf("seed %d client %d: warm job %s is not seeded at set-up", seed, c, sig)
					}
					continue
				}
				fresh++
				if warm[sig] {
					t.Errorf("seed %d client %d: fresh job %s is a warm shape", seed, c, sig)
				}
				if prev, ok := owner[sig]; ok {
					t.Errorf("seed %d: fresh shape %s submitted by clients %d and %d", seed, sig, prev, c)
				}
				owner[sig] = c
			}
			if fresh != n/4 {
				t.Errorf("seed %d client %d: %d fresh jobs, want %d", seed, c, fresh, n/4)
			}
			if len(tenants) != tenantsPerClient {
				t.Errorf("seed %d client %d: %d tenants, want %d", seed, c, len(tenants), tenantsPerClient)
			}
		}
		if kinds0 == nil {
			kinds0 = kinds
		} else if !reflect.DeepEqual(kinds, kinds0) {
			t.Errorf("seed %d schedules models and levels %v, seed 1 %v", seed, kinds, kinds0)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "wired-dp", "--seconds", "0"},
		{"--workload", "wired-dp", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

// contractUnits reads the metric units BENCHMARK.json declares, by name.
func contractUnits(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading the benchmark contract: %v", err)
	}
	var c struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("parsing the benchmark contract: %v", err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload at test scale, untraced and
// traced: every output check must pass, the result must carry exactly the
// metrics BENCHMARK.json declares, and the traced replica's spans must
// cover at least nine tenths of its op time.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := contractUnits(t)
	for _, name := range []string{"explore-cold", "wired-dp", "serve-mix"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				dir := t.TempDir()
				rep, err := workloads[name](config{
					workload: name, seed: 1, budget: 100 * time.Millisecond,
					trace: traced, spansDir: dir, tiny: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || rep.digest == "" {
					t.Fatalf("correct=%v attempted=%d failed=%d digest=%q", rep.Correct, rep.Attempted, rep.Failed, rep.digest)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				got := map[string]string{}
				for n, m := range rep.Metrics {
					got[n] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				if !traced {
					return
				}
				if share := rep.Metrics["trace.attributed_share"].Value; share < 0.9 {
					t.Errorf("spans cover %.3f of op time, want at least 0.9", share)
				}
				if _, err := os.Stat(filepath.Join(dir, "spans-"+name+".jsonl")); err != nil {
					t.Errorf("no span file: %v", err)
				}
			})
		}
	}
}
