package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"astra/internal/costmodel"
)

func TestJobValidationRejectsWithValidChoices(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error, naming the valid choices
	}{
		{"not json", `nope`, "bad job JSON"},
		{"trailing garbage", `{"model":"sublstm"} extra`, "trailing data"},
		{"unknown field", `{"model":"sublstm","turbo":true}`, "bad job JSON"},
		{"unknown model", `{"model":"resnet50"}`, "valid models: attlstm, gnmt, milstm, rhn, scrnn, stackedlstm, sublstm"},
		{"unknown scale", `{"model":"sublstm","scale":"huge"}`, "valid scales: default, tiny"},
		{"unknown level", `{"model":"sublstm","level":"FX"}`, "valid levels: All, F, FK, FKS"},
		{"unknown fabric", `{"model":"sublstm","workers":2,"fabric":"infiniband"}`, "valid fabrics: nvlink1, pcie3"},
		{"batch too big", `{"model":"sublstm","batch":100000}`, "valid: 1..512"},
		{"negative batch", `{"model":"sublstm","batch":-3}`, "valid: 1..512"},
		{"workers too big", `{"model":"sublstm","workers":64}`, "valid: 1..8"},
		{"streams too big", `{"model":"sublstm","streams":99}`, "valid: 0..8"},
		{"steps too big", `{"model":"sublstm","steps":1000}`, "valid: 1..64"},
		{"tenant hash", `{"model":"sublstm","tenant":"a#b"}`, "must not contain"},
		{"tenant huge", `{"model":"sublstm","tenant":"` + strings.Repeat("x", 200) + `"}`, "longer than 64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseJob([]byte(tc.body))
			if err == nil {
				t.Fatalf("ParseJob(%q) accepted, want rejection", tc.body)
			}
			var ve *ValidationError
			if ok := AsValidation(err, &ve); !ok {
				t.Fatalf("ParseJob(%q) error %T, want *ValidationError", tc.body, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseJob(%q) error %q does not name valid choices %q", tc.body, err, tc.want)
			}
		})
	}
}

func TestJobDefaultsAndSignature(t *testing.T) {
	j, err := ParseJob([]byte(`{"model":"sublstm"}`))
	if err != nil {
		t.Fatalf("minimal job rejected: %v", err)
	}
	if j.Tenant != "anon" || j.Scale != "tiny" || j.Batch != 4 || j.Level != "FK" ||
		j.Workers != 1 || j.Fabric != "" || j.Steps != 1 {
		t.Fatalf("defaults wrong: %+v", j)
	}
	want := "model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;"
	if got := j.Signature(); got != want {
		t.Fatalf("Signature() = %q, want %q", got, want)
	}

	// Distributed defaults: fabric appears only with workers >= 2.
	d, err := ParseJob([]byte(`{"model":"scrnn","workers":2}`))
	if err != nil {
		t.Fatalf("workers job rejected: %v", err)
	}
	if d.Fabric != "pcie3" {
		t.Fatalf("workers>=2 default fabric = %q, want pcie3", d.Fabric)
	}
	// A fabric on a single-worker job is validated, then dropped from the
	// signature: it cannot split otherwise-identical shapes.
	s1, err := ParseJob([]byte(`{"model":"scrnn","fabric":"nvlink1"}`))
	if err != nil {
		t.Fatalf("single-worker fabric rejected: %v", err)
	}
	s2, _ := ParseJob([]byte(`{"model":"scrnn"}`))
	if s1.Signature() != s2.Signature() {
		t.Fatalf("idle fabric split signatures: %q vs %q", s1.Signature(), s2.Signature())
	}

	// The tenant must never leak into the signature (cross-tenant reuse).
	a, _ := ParseJob([]byte(`{"model":"sublstm","tenant":"alice"}`))
	b, _ := ParseJob([]byte(`{"model":"sublstm","tenant":"bob"}`))
	if a.Signature() != b.Signature() {
		t.Fatalf("tenant leaked into signature: %q vs %q", a.Signature(), b.Signature())
	}

	// No signature may be a prefix of a different shape's (eviction works
	// by prefix).
	p1, _ := (Job{Model: "sublstm", Batch: 1}).Normalize()
	p2, _ := (Job{Model: "sublstm", Batch: 12}).Normalize()
	if strings.HasPrefix(p2.Signature(), p1.Signature()) {
		t.Fatalf("signature %q is a prefix of %q", p1.Signature(), p2.Signature())
	}
}

// TestCostMetaPinned pins the cost-model features each standard mix shape
// trains and predicts under; a tenant's learned model is keyed on them, so
// they must not move when the job → Meta mapping is touched.
func TestCostMetaPinned(t *testing.T) {
	want := []costmodel.Meta{
		{Model: "sublstm", Scale: "tiny", Batch: 4, Workers: 1},
		{Model: "scrnn", Scale: "tiny", Batch: 4, Workers: 1},
		{Model: "milstm", Scale: "tiny", Batch: 4, Workers: 1},
		{Model: "sublstm", Scale: "tiny", Batch: 8, Workers: 1},
		{Model: "scrnn", Scale: "tiny", Batch: 4, Workers: 2, Fabric: "pcie3"},
		{Model: "sublstm", Scale: "tiny", Batch: 4, Workers: 2, Fabric: "nvlink1"},
		{Model: "milstm", Scale: "tiny", Batch: 2, Workers: 1},
		{Model: "scrnn", Scale: "tiny", Batch: 4, Workers: 1},
	}
	mix := DefaultMix()
	if len(mix) != len(want) {
		t.Fatalf("DefaultMix has %d shapes, pinned %d", len(mix), len(want))
	}
	for i, j := range mix {
		n, err := j.Normalize()
		if err != nil {
			t.Fatalf("mix shape %d: %v", i, err)
		}
		if got := n.costMeta(); got != want[i] {
			t.Errorf("%s: costMeta = %+v, want %+v", n.Signature(), got, want[i])
		}
	}
}

// AsValidation adapts errors.As for the test table.
func AsValidation(err error, target **ValidationError) bool {
	ve, ok := err.(*ValidationError)
	if ok {
		*target = ve
	}
	return ok
}

// TestSubmitColdThenWarm is the service's core guarantee: the first job of
// a shape explores cold; any later job of the same shape — from any tenant
// — warm-starts off the fleet store, converges with zero trials of its own,
// and wires the exact same schedule.
func TestSubmitColdThenWarm(t *testing.T) {
	s := NewServer(Config{})
	job := Job{Tenant: "alice", Model: "sublstm", Level: "FK"}

	var events []Event
	cold, err := s.Submit(context.Background(), job, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("cold submit failed: %v", err)
	}
	if cold.WarmStart {
		t.Fatal("first job of a shape reported WarmStart")
	}
	if cold.Trials == 0 {
		t.Fatal("cold job reported zero exploration trials")
	}
	if cold.WiredUs <= 0 {
		t.Fatalf("cold WiredUs = %v, want > 0", cold.WiredUs)
	}
	if len(events) < 3 || events[0].Type != "queued" || events[1].Type != "start" ||
		events[len(events)-1].Type != "result" {
		t.Fatalf("cold event stream malformed: %d events, first %q, last %q",
			len(events), events[0].Type, events[len(events)-1].Type)
	}
	trials, wired := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case "trial":
			trials++
		case "wired":
			wired++
		}
	}
	if trials != cold.Trials || wired != 1 {
		t.Fatalf("stream had %d trial / %d wired events, want %d / 1", trials, wired, cold.Trials)
	}

	job.Tenant = "bob"
	warm, err := s.Submit(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("warm submit failed: %v", err)
	}
	if !warm.WarmStart {
		t.Fatal("second job of the shape did not warm-start")
	}
	if warm.Trials != 0 {
		t.Fatalf("warm job ran %d trials, want 0", warm.Trials)
	}
	if warm.WiredUs != cold.WiredUs {
		t.Fatalf("warm wired %v != cold wired %v (must be byte-identical)", warm.WiredUs, cold.WiredUs)
	}
	if warm.WarmDeltaPct != 0 {
		t.Fatalf("WarmDeltaPct = %v, want exactly 0", warm.WarmDeltaPct)
	}
	if warm.ColdWiredUs != cold.WiredUs {
		t.Fatalf("warm ColdWiredUs = %v, want %v", warm.ColdWiredUs, cold.WiredUs)
	}

	st := s.StatsSnapshot()
	if st.WarmHits != 1 || st.WarmMisses != 1 || st.Completed != 2 {
		t.Fatalf("stats = hits %v misses %v completed %v, want 1/1/2", st.WarmHits, st.WarmMisses, st.Completed)
	}
	if st.WarmHitRate != 0.5 {
		t.Fatalf("WarmHitRate = %v, want 0.5", st.WarmHitRate)
	}
	if len(st.Signatures) != 1 || !st.Signatures[0].Completed || st.Signatures[0].ColdWiredUs != cold.WiredUs {
		t.Fatalf("signature stats wrong: %+v", st.Signatures)
	}
}

// TestSharedStoreDoesNotPerturbResults: a shape explored on a busy shared
// server must wire the same schedule and the same mini-batch time as the
// same shape explored solo on a fresh server — the shared store may only
// accelerate, never change results.
func TestSharedStoreDoesNotPerturbResults(t *testing.T) {
	jobs := []Job{
		{Model: "sublstm", Level: "FK"},
		{Model: "scrnn", Level: "F"},
		{Model: "scrnn", Level: "FK", Workers: 2},
	}
	solo := map[string]float64{}
	for _, j := range jobs {
		s := NewServer(Config{})
		res, err := s.Submit(context.Background(), j, nil)
		if err != nil {
			t.Fatalf("solo %+v failed: %v", j, err)
		}
		solo[res.Signature] = res.WiredUs
	}
	shared := NewServer(Config{})
	for round := 0; round < 2; round++ {
		for _, j := range jobs {
			res, err := shared.Submit(context.Background(), j, nil)
			if err != nil {
				t.Fatalf("shared %+v failed: %v", j, err)
			}
			if res.WiredUs != solo[res.Signature] {
				t.Fatalf("round %d %s: shared wired %v != solo wired %v",
					round, res.Signature, res.WiredUs, solo[res.Signature])
			}
			if round == 1 && !res.WarmStart {
				t.Fatalf("round 1 %s did not warm-start", res.Signature)
			}
		}
	}
}

// TestProfileSnapshotSeedsWarmStarts: exporting a fleet snapshot and
// importing it into a fresh server transfers the warmth — the import-seeded
// server converges the shape with zero trials and the identical wired time.
func TestProfileSnapshotSeedsWarmStarts(t *testing.T) {
	a := NewServer(Config{})
	job := Job{Model: "milstm", Level: "FK"}
	cold, err := a.Submit(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("cold submit failed: %v", err)
	}

	var snap bytes.Buffer
	if err := a.Fleet().Save(&snap); err != nil {
		t.Fatalf("snapshot export failed: %v", err)
	}
	b := NewServer(Config{})
	if err := b.Fleet().Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("snapshot import failed: %v", err)
	}
	if b.Fleet().Len() != a.Fleet().Len() {
		t.Fatalf("import kept %d keys, want %d", b.Fleet().Len(), a.Fleet().Len())
	}
	warm, err := b.Submit(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("seeded submit failed: %v", err)
	}
	if !warm.WarmStart || warm.Trials != 0 {
		t.Fatalf("seeded job: WarmStart=%v Trials=%d, want warm with 0 trials", warm.WarmStart, warm.Trials)
	}
	if warm.WiredUs != cold.WiredUs {
		t.Fatalf("seeded wired %v != origin wired %v", warm.WiredUs, cold.WiredUs)
	}
}

// TestPriorGuidedJobs covers the per-tenant cost-model path end to end
// (docs/COSTMODEL.md): every session trains its tenant's model, an opted-in
// job of a *neighbour* shape is ranked/pruned by it without changing the
// wired result, an opted-in job from a tenant with no history degrades to
// exactly cold behaviour, and the prior-quality rollup lands in Stats.
func TestPriorGuidedJobs(t *testing.T) {
	teach := Job{Tenant: "alice", Model: "sublstm", Level: "FK", Batch: 4}
	target := Job{Tenant: "alice", Model: "sublstm", Level: "FK", Batch: 8}

	// Cold reference for the target shape, on a fresh server.
	ref := NewServer(Config{})
	cold, err := ref.Submit(context.Background(), target, nil)
	if err != nil {
		t.Fatalf("cold reference failed: %v", err)
	}

	s := NewServer(Config{})
	if _, err := s.Submit(context.Background(), teach, nil); err != nil {
		t.Fatalf("teacher job failed: %v", err)
	}

	// Same tenant, neighbour shape (batch 8 vs 4 — a different signature, so
	// no fleet-store warm start), opted into guidance: every prediction comes
	// through the model's neighbour-shape backoff.
	guided := target
	guided.Prior = true
	res, err := s.Submit(context.Background(), guided, nil)
	if err != nil {
		t.Fatalf("guided submit failed: %v", err)
	}
	if res.WarmStart {
		t.Fatal("guided job warm-started; the shapes must differ for this test")
	}
	if !res.Prior {
		t.Fatal("result did not echo the prior opt-in")
	}
	if res.PriorHits+res.PriorMisses == 0 && res.PriorPruned == 0 {
		t.Fatalf("guided job shows no model engagement: %+v", res)
	}
	if res.Trials > cold.Trials {
		t.Fatalf("guided exploration took %d trials, cold took %d", res.Trials, cold.Trials)
	}
	// The serving guarantee extends to guided jobs: guidance may only change
	// the path to the answer, never the answer.
	if res.WiredUs != cold.WiredUs {
		t.Fatalf("guided wired %v != cold wired %v", res.WiredUs, cold.WiredUs)
	}

	// A tenant with no history opting in: the model starts empty but trains
	// online from the session's own early trials, so later variables still
	// get (self-)guidance. The invariant is safety, not inertness: the wired
	// result must match cold exactly.
	fresh := Job{Tenant: "carol", Model: "sublstm", Level: "FK", Batch: 8, Prior: true}
	f := NewServer(Config{})
	fres, err := f.Submit(context.Background(), fresh, nil)
	if err != nil {
		t.Fatalf("fresh-tenant guided submit failed: %v", err)
	}
	if fres.WiredUs != cold.WiredUs {
		t.Fatalf("no-history guided wired %v != cold wired %v", fres.WiredUs, cold.WiredUs)
	}
	if fres.Trials > cold.Trials {
		t.Fatalf("no-history guided exploration took %d trials, cold took %d", fres.Trials, cold.Trials)
	}

	// Stats rollup: the guided job and the model sizes are visible.
	st := s.StatsSnapshot()
	if st.PriorJobs != 1 {
		t.Fatalf("PriorJobs = %v, want 1", st.PriorJobs)
	}
	if st.PriorHits != float64(res.PriorHits) || st.PriorMisses != float64(res.PriorMisses) ||
		st.PriorPruned != float64(res.PriorPruned) {
		t.Fatalf("stats prior counters %v/%v/%v do not match result %d/%d/%d",
			st.PriorHits, st.PriorMisses, st.PriorPruned, res.PriorHits, res.PriorMisses, res.PriorPruned)
	}
	if n := st.PriorHits + st.PriorMisses; n > 0 && st.PriorHitRate != st.PriorHits/n {
		t.Fatalf("PriorHitRate = %v, want %v", st.PriorHitRate, st.PriorHits/n)
	}
	if st.ModelTenants != 1 {
		t.Fatalf("ModelTenants = %d, want 1 (alice)", st.ModelTenants)
	}
	if st.ModelUpdates == 0 {
		t.Fatal("ModelUpdates = 0 after two explored sessions")
	}
}

// TestDefaultJobsUnchangedByTenantModel: a default (non-Prior) job must be
// byte-identical whether or not its tenant has a trained cost model —
// ModeTrain only learns, it never plans, so the fleet's exact-reuse
// guarantees hold with no opt-in.
func TestDefaultJobsUnchangedByTenantModel(t *testing.T) {
	target := Job{Tenant: "alice", Model: "scrnn", Level: "FK", Batch: 8}

	ref := NewServer(Config{})
	cold, err := ref.Submit(context.Background(), target, nil)
	if err != nil {
		t.Fatalf("reference failed: %v", err)
	}

	s := NewServer(Config{})
	// Train alice's model on two neighbour shapes first.
	for _, b := range []int{2, 4} {
		j := target
		j.Batch = b
		if _, err := s.Submit(context.Background(), j, nil); err != nil {
			t.Fatalf("teacher batch %d failed: %v", b, err)
		}
	}
	res, err := s.Submit(context.Background(), target, nil)
	if err != nil {
		t.Fatalf("default submit failed: %v", err)
	}
	if res.Trials != cold.Trials || res.WiredUs != cold.WiredUs {
		t.Fatalf("default job perturbed by tenant model: %d trials / %v µs, want %d / %v",
			res.Trials, res.WiredUs, cold.Trials, cold.WiredUs)
	}
	if res.Prior || res.PriorHits+res.PriorMisses+res.PriorPruned != 0 {
		t.Fatalf("default job reported prior activity: %+v", res)
	}
	if st := s.StatsSnapshot(); st.PriorJobs != 0 {
		t.Fatalf("PriorJobs = %v after default-only jobs, want 0", st.PriorJobs)
	}
}

// TestHTTPEndToEnd drives the full HTTP surface: streaming submit,
// single-shot submit, stats, metrics, health and the profile round trip —
// through a real HTTP server and the package's own client.
func TestHTTPEndToEnd(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Streaming client: events arrive, result matches.
	cl := &Client{BaseURL: ts.URL, Stream: true}
	var events []Event
	res, err := cl.Submit(context.Background(), Job{Tenant: "alice", Model: "sublstm"}, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("stream submit failed: %v", err)
	}
	if res.WarmStart || res.Trials == 0 {
		t.Fatalf("cold stream result wrong: %+v", res)
	}
	if len(events) == 0 || events[len(events)-1].Type != "result" {
		t.Fatalf("stream events malformed: %d events", len(events))
	}

	// Single-shot client: warm now, identical wired time.
	cl2 := &Client{BaseURL: ts.URL}
	res2, err := cl2.Submit(context.Background(), Job{Tenant: "bob", Model: "sublstm"}, nil)
	if err != nil {
		t.Fatalf("single-shot submit failed: %v", err)
	}
	if !res2.WarmStart || res2.WiredUs != res.WiredUs {
		t.Fatalf("warm single-shot: %+v, want warm with wired %v", res2, res.WiredUs)
	}

	// Invalid jobs come back 400 with the valid choices, as a
	// *ValidationError through the client.
	_, err = cl2.Submit(context.Background(), Job{Model: "resnet50"}, nil)
	var ve *ValidationError
	if !AsValidation(err, &ve) || !strings.Contains(err.Error(), "valid models") {
		t.Fatalf("invalid model error = %v, want ValidationError naming valid models", err)
	}

	// Stats reflect the two completions.
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if st.Completed != 2 || st.WarmHits != 1 {
		t.Fatalf("stats = %+v, want completed 2 warm hits 1", st)
	}

	// Metrics exposition carries the serve.* family.
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	prom := new(bytes.Buffer)
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_jobs_completed 2", "serve_warm_hits 1", "serve_store_keys"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, prom.String())
		}
	}

	// Health is OK while serving.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v status %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Profile round trip over HTTP: export, import into a second server,
	// and the seeded server warm-starts the shape.
	resp, err = ts.Client().Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatalf("profile export: %v", err)
	}
	snap := new(bytes.Buffer)
	_, _ = snap.ReadFrom(resp.Body)
	resp.Body.Close()

	s2 := NewServer(Config{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Post(ts2.URL+"/v1/profile", "application/json", snap)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("profile import = %v status %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()
	res3, err := (&Client{BaseURL: ts2.URL}).Submit(context.Background(), Job{Model: "sublstm"}, nil)
	if err != nil {
		t.Fatalf("seeded submit failed: %v", err)
	}
	if !res3.WarmStart || res3.Trials != 0 || res3.WiredUs != res.WiredUs {
		t.Fatalf("HTTP-seeded job: %+v, want warm, 0 trials, wired %v", res3, res.WiredUs)
	}
}
