package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerMethodDiscipline(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/jobs"},
		{http.MethodPost, "/v1/stats"},
		{http.MethodDelete, "/v1/profile"},
		{http.MethodPost, "/metrics"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
	// Corrupt snapshot import is a 400, not a crash or a half-load.
	resp, err := ts.Client().Post(ts.URL+"/v1/profile", "application/json", strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatalf("corrupt import: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt import = %d, want 400", resp.StatusCode)
	}
	if s.Fleet().Len() != 0 {
		t.Fatalf("corrupt import half-loaded %d keys", s.Fleet().Len())
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{invalidf("nope"), http.StatusBadRequest},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrDraining, http.StatusServiceUnavailable},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := httpStatus(c.err); got != c.want {
			t.Fatalf("httpStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestClientMapsRejections: the HTTP client must hand back the same
// sentinel errors an in-process caller gets, on both transports — status
// codes for single-shot, in-band error events for streams.
func TestClientMapsRejections(t *testing.T) {
	s, started, release := newStubServer(Config{MaxInFlight: 1, MaxQueue: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker := submitAsync(s, context.Background(), "blocker")
	if got := <-started; got != "blocker" {
		t.Fatalf("first start = %q, want blocker", got)
	}

	// Queue full: 429 on the single-shot form.
	oneshot := &Client{BaseURL: ts.URL, HTTP: ts.Client()}
	if _, err := oneshot.Submit(context.Background(), Job{Model: "sublstm"}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("single-shot queue-full error = %v, want ErrQueueFull", err)
	}
	release <- nil
	if out := <-blocker; out.err != nil {
		t.Fatalf("blocker failed: %v", out.err)
	}

	// Draining: 503 single-shot, in-band "draining" event on the stream.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := oneshot.Submit(context.Background(), Job{Model: "sublstm"}, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("single-shot draining error = %v, want ErrDraining", err)
	}
	streamer := &Client{BaseURL: ts.URL, Stream: true}
	if _, err := streamer.Submit(context.Background(), Job{Model: "sublstm"}, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("stream draining error = %v, want ErrDraining", err)
	}
}

func TestNormalizeAndAccessors(t *testing.T) {
	j, err := (Job{Model: "sublstm", Workers: 2}).Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if j.Fabric != "pcie3" || j.Batch != 4 {
		t.Fatalf("Normalize defaults wrong: %+v", j)
	}
	if _, err := (Job{Model: "nope"}).Normalize(); err == nil {
		t.Fatal("Normalize accepted an unknown model")
	}
	if s := NewServer(Config{}); s.Fleet() == nil || s.Fleet().Len() != 0 {
		t.Fatal("Fleet() is not an empty store")
	}
}

func TestRunLoadRejectsBadMix(t *testing.T) {
	_, err := RunLoad(context.Background(), NewServer(Config{}), LoadConfig{
		Mix: []Job{{Model: "sublstm"}, {Model: "resnet50"}},
	})
	if err == nil || !strings.Contains(err.Error(), "load mix entry 1") {
		t.Fatalf("bad mix error = %v, want entry-1 rejection", err)
	}
}
