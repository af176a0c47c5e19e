package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"astra/internal/profile"
)

// newStubServer replaces the session executor with a channel-driven stub:
// each admitted job announces itself on started (its tenant name) and then
// blocks until the test sends its outcome on release — or its context dies.
// Every admission edge case below is driven by channel handoffs alone; no
// test sleeps.
func newStubServer(cfg Config) (s *Server, started chan string, release chan error) {
	s = NewServer(cfg)
	started = make(chan string)
	release = make(chan error)
	s.exec = func(ctx context.Context, j Job, sig string, emit func(Event)) (*sessionOutcome, error) {
		select {
		case started <- j.Tenant:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case err := <-release:
			if err != nil {
				return nil, err
			}
			return &sessionOutcome{trials: 3, wiredUs: 100, simTimeUs: 500}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, started, release
}

// waitQueued spins (yielding) until the admission queue holds want jobs —
// bounded so a regression fails the test instead of hanging it.
func waitQueued(t *testing.T, s *Server, want int) {
	t.Helper()
	for i := 0; i < 1e8; i++ {
		if _, q := s.adm.Counts(); q == want {
			return
		}
		runtime.Gosched()
	}
	_, q := s.adm.Counts()
	t.Fatalf("admission queue stuck at %d, want %d", q, want)
}

type submitOutcome struct {
	res *Result
	err error
}

func submitAsync(s *Server, ctx context.Context, tenant string) chan submitOutcome {
	ch := make(chan submitOutcome, 1)
	go func() {
		res, err := s.Submit(ctx, Job{Tenant: tenant, Model: "sublstm"}, nil)
		ch <- submitOutcome{res, err}
	}()
	return ch
}

func TestAdmissionQueueFullRejects(t *testing.T) {
	s, started, release := newStubServer(Config{MaxInFlight: 1, MaxQueue: 1})

	a := submitAsync(s, context.Background(), "a")
	if got := <-started; got != "a" {
		t.Fatalf("first start = %q, want a", got)
	}
	b := submitAsync(s, context.Background(), "b")
	waitQueued(t, s, 1)

	// The queue is at capacity: the next submission bounces immediately.
	if _, err := s.Submit(context.Background(), Job{Tenant: "c", Model: "sublstm"}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit error = %v, want ErrQueueFull", err)
	}
	if v := s.mRejQueue.Value(); v != 1 {
		t.Fatalf("rejected_queue_full = %v, want 1", v)
	}

	// The running and the queued job are unharmed.
	release <- nil
	if out := <-a; out.err != nil {
		t.Fatalf("job a failed: %v", out.err)
	}
	if got := <-started; got != "b" {
		t.Fatalf("second start = %q, want b", got)
	}
	release <- nil
	if out := <-b; out.err != nil {
		t.Fatalf("job b failed: %v", out.err)
	}
}

func TestAdmissionQueueIsFIFO(t *testing.T) {
	s, started, release := newStubServer(Config{MaxInFlight: 1, MaxQueue: 8})
	a := submitAsync(s, context.Background(), "a")
	if got := <-started; got != "a" {
		t.Fatalf("first start = %q, want a", got)
	}
	// Queue b, c, d strictly in order (each enqueue is confirmed before
	// the next submission).
	outs := map[string]chan submitOutcome{}
	for i, tenant := range []string{"b", "c", "d"} {
		outs[tenant] = submitAsync(s, context.Background(), tenant)
		waitQueued(t, s, i+1)
	}
	release <- nil
	<-a
	for _, want := range []string{"b", "c", "d"} {
		if got := <-started; got != want {
			t.Fatalf("start order got %q, want %q", got, want)
		}
		release <- nil
		if out := <-outs[want]; out.err != nil {
			t.Fatalf("job %s failed: %v", want, out.err)
		}
	}
}

func TestClientDisconnectMidSession(t *testing.T) {
	s, started, release := newStubServer(Config{MaxInFlight: 1, MaxQueue: 4})

	// Disconnect while the session runs: the context dies, the session
	// aborts, the slot frees for the next tenant.
	ctxA, cancelA := context.WithCancel(context.Background())
	a := submitAsync(s, ctxA, "a")
	if got := <-started; got != "a" {
		t.Fatalf("first start = %q, want a", got)
	}
	cancelA()
	if out := <-a; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("disconnected job error = %v, want context.Canceled", out.err)
	}
	if v := s.mAborted.Value(); v != 1 {
		t.Fatalf("aborted = %v, want 1", v)
	}

	// Disconnect while queued: the waiter leaves the queue without ever
	// starting, and does not consume the slot.
	b := submitAsync(s, context.Background(), "b")
	if got := <-started; got != "b" {
		t.Fatalf("second start = %q, want b", got)
	}
	ctxC, cancelC := context.WithCancel(context.Background())
	c := submitAsync(s, ctxC, "c")
	waitQueued(t, s, 1)
	cancelC()
	if out := <-c; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("queued-disconnect error = %v, want context.Canceled", out.err)
	}
	waitQueued(t, s, 0)
	// b is unaffected; after it, a fresh job still gets the slot.
	release <- nil
	if out := <-b; out.err != nil {
		t.Fatalf("job b failed: %v", out.err)
	}
	d := submitAsync(s, context.Background(), "d")
	if got := <-started; got != "d" {
		t.Fatalf("post-disconnect start = %q, want d", got)
	}
	release <- nil
	if out := <-d; out.err != nil {
		t.Fatalf("job d failed: %v", out.err)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, started, release := newStubServer(Config{MaxInFlight: 1, MaxQueue: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := submitAsync(s, context.Background(), "a")
	if got := <-started; got != "a" {
		t.Fatalf("first start = %q, want a", got)
	}
	b := submitAsync(s, context.Background(), "b")
	waitQueued(t, s, 1)

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()

	// The queued job is bounced immediately — it never started, so no
	// work is lost.
	if out := <-b; !errors.Is(out.err, ErrDraining) {
		t.Fatalf("queued job during drain error = %v, want ErrDraining", out.err)
	}
	// New submissions are refused while draining.
	if _, err := s.Submit(context.Background(), Job{Tenant: "c", Model: "sublstm"}, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain error = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false during drain")
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("healthz during drain = %v status %d, want 503", err, resp.StatusCode)
	}
	resp.Body.Close()

	// The in-flight job runs to completion and the drain then finishes.
	release <- nil
	if out := <-a; out.err != nil || out.res == nil {
		t.Fatalf("in-flight job during drain: %v, want clean completion", out.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown returned %v, want nil", err)
	}
}

func TestDrainDeadlineExpires(t *testing.T) {
	s, started, release := newStubServer(Config{MaxInFlight: 1, MaxQueue: 4})
	a := submitAsync(s, context.Background(), "a")
	if got := <-started; got != "a" {
		t.Fatalf("first start = %q, want a", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already passed: drain must not wait for a
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired drain error = %v, want context.Canceled", err)
	}
	// The in-flight job still finishes cleanly afterwards.
	release <- nil
	if out := <-a; out.err != nil {
		t.Fatalf("job a after failed drain: %v", out.err)
	}
}

// TestStreamQueueFullEvent: on the NDJSON stream the 200 status is already
// committed when admission rejects, so the rejection travels in-band as an
// error event with a machine-readable code — and the client maps it back to
// ErrQueueFull.
func TestStreamQueueFullEvent(t *testing.T) {
	s, started, release := newStubServer(Config{MaxInFlight: 1, MaxQueue: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := submitAsync(s, context.Background(), "a")
	if got := <-started; got != "a" {
		t.Fatalf("first start = %q, want a", got)
	}
	cl := &Client{BaseURL: ts.URL, Stream: true}
	var last Event
	_, err := cl.Submit(context.Background(), Job{Tenant: "b", Model: "sublstm"}, func(ev Event) { last = ev })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("stream submit error = %v, want ErrQueueFull", err)
	}
	if last.Type != "error" || last.Code != "queue_full" {
		t.Fatalf("terminal stream event = %+v, want error/queue_full", last)
	}
	release <- nil
	if out := <-a; out.err != nil {
		t.Fatalf("job a failed: %v", out.err)
	}
}

// TestEvictionUnderCeiling drives the fleet store over its key ceiling and
// checks the LRU-by-signature eviction: oldest completed signature goes
// first, signatures with active sessions are never evicted, and an evicted
// signature loses its warm baseline (the next job of that shape is cold).
func TestEvictionUnderCeiling(t *testing.T) {
	const keysPerJob = 6
	s := NewServer(Config{MaxInFlight: 2, MaxQueue: 8, MaxStoreKeys: 10})
	block := make(chan struct{})
	recorded := make(chan struct{})
	s.exec = func(ctx context.Context, j Job, sig string, emit func(Event)) (*sessionOutcome, error) {
		for i := 0; i < keysPerJob; i++ {
			s.fleet.Record(profile.K(sig, "v", fmt.Sprintf("%d", i)), float64(i))
		}
		if j.Tenant == "blocker" {
			close(recorded)
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &sessionOutcome{trials: 1, wiredUs: 50}, nil
	}

	sig := func(model string, batch int) string {
		j, err := (Job{Model: model, Batch: batch}).Normalize()
		if err != nil {
			t.Fatalf("bad shape: %v", err)
		}
		return j.Signature()
	}

	// Job 1 (6 keys) fits; job 2 (12 total) crosses the ceiling and must
	// evict job 1's signature — the least recently used completed one.
	if _, err := s.Submit(context.Background(), Job{Model: "sublstm", Batch: 1}, nil); err != nil {
		t.Fatalf("job1: %v", err)
	}
	if n := s.fleet.Len(); n != keysPerJob {
		t.Fatalf("after job1: %d keys, want %d", n, keysPerJob)
	}
	if _, err := s.Submit(context.Background(), Job{Model: "sublstm", Batch: 2}, nil); err != nil {
		t.Fatalf("job2: %v", err)
	}
	if n := s.fleet.Len(); n != keysPerJob {
		t.Fatalf("after job2: %d keys, want %d (job1's signature evicted)", n, keysPerJob)
	}
	if s.fleet.Has(profile.K(sig("sublstm", 1), "v", "0")) {
		t.Fatal("evicted signature's keys still present")
	}
	if !s.fleet.Has(profile.K(sig("sublstm", 2), "v", "0")) {
		t.Fatal("surviving signature's keys gone")
	}
	if v := s.mEvictions.Value(); v != 1 {
		t.Fatalf("store_evictions = %v, want 1", v)
	}
	st := s.StatsSnapshot()
	if len(st.Signatures) != 1 || st.Signatures[0].Signature != sig("sublstm", 2) {
		t.Fatalf("signature table after eviction: %+v", st.Signatures)
	}

	// An active session's signature is sacrosanct: while "blocker" holds
	// batch=3 active, a completing job can only evict inactive completed
	// signatures — here its own, leaving the active keys untouched.
	blocker := submitAsync2(s, Job{Tenant: "blocker", Model: "sublstm", Batch: 3})
	<-recorded
	if _, err := s.Submit(context.Background(), Job{Model: "sublstm", Batch: 4}, nil); err != nil {
		t.Fatalf("job4: %v", err)
	}
	if !s.fleet.Has(profile.K(sig("sublstm", 3), "v", "0")) {
		t.Fatal("active signature was evicted")
	}
	close(block)
	if out := <-blocker; out.err != nil {
		t.Fatalf("blocker failed: %v", out.err)
	}
	if n, max := s.fleet.Len(), 10; n > max+keysPerJob {
		t.Fatalf("store far over ceiling: %d keys", n)
	}

	// The evicted shape resubmits cold: its warm baseline is gone.
	res, err := s.Submit(context.Background(), Job{Model: "sublstm", Batch: 1}, nil)
	if err != nil {
		t.Fatalf("re-submit after eviction: %v", err)
	}
	if res.WarmStart {
		t.Fatal("job of an evicted signature reported WarmStart")
	}
}

func submitAsync2(s *Server, j Job) chan submitOutcome {
	ch := make(chan submitOutcome, 1)
	go func() {
		res, err := s.Submit(context.Background(), j, nil)
		ch <- submitOutcome{res, err}
	}()
	return ch
}
