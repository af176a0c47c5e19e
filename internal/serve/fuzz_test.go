package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"astra/internal/job"
)

// FuzzServeRequest hardens the job intake: arbitrary bytes — hostile JSON,
// deep nesting, huge numbers, unicode, truncations — must either parse into
// a fully-validated job or come back as a *ValidationError that names the
// valid choices. Never a panic, and through the HTTP handler never a 5xx.
func FuzzServeRequest(f *testing.F) {
	f.Add([]byte(`{"model":"sublstm"}`))
	f.Add([]byte(`{"model":"sublstm","level":"FK","workers":2,"fabric":"nvlink1","steps":3}`))
	f.Add([]byte(`{"model":"resnet50"}`))
	f.Add([]byte(`{"model":"sublstm","batch":-1}`))
	f.Add([]byte(`{"model":"sublstm","batch":1e30}`))
	f.Add([]byte(`{"model":"sublstm","unknown_field":1}`))
	f.Add([]byte(`{"model":"sublstm"} {"model":"scrnn"}`))
	f.Add([]byte(`{"tenant":"` + strings.Repeat("№", 99) + `","model":"sublstm"}`))
	f.Add([]byte(`{"tenant":"a#b","model":"sublstm"}`))
	f.Add([]byte(`[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]`))
	f.Add([]byte(`{"model":{"nested":"object"}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\x01\x02"))

	// One stub-backed server shared by all fuzz iterations: valid jobs
	// must also survive the full HTTP round trip without real exploration.
	s := NewServer(Config{MaxInFlight: 4, MaxQueue: 1 << 16})
	s.exec = func(ctx context.Context, j Job, sig string, emit func(Event)) (*sessionOutcome, error) {
		return &sessionOutcome{trials: 1, wiredUs: 10}, nil
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ParseJob(data)
		if err != nil {
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("ParseJob returned %T (%v), want *ValidationError", err, err)
			}
			if !strings.HasPrefix(err.Error(), "serve: ") || len(err.Error()) < 10 {
				t.Fatalf("rejection message unhelpful: %q", err.Error())
			}
		} else {
			// Accepted: every field must be inside its documented range and
			// the signature well-formed for prefix eviction.
			if j.Tenant == "" || len(j.Tenant) > maxTenantLen || strings.ContainsAny(j.Tenant, "#\n\r") {
				t.Fatalf("accepted job has bad tenant %q", j.Tenant)
			}
			if j.Batch < 1 || j.Batch > maxBatch || j.Workers < 1 || j.Workers > maxWorkers ||
				j.Steps < 1 || j.Steps > maxSteps || j.Streams < 0 || j.Streams > maxStreams {
				t.Fatalf("accepted job out of range: %+v", j)
			}
			if _, ok := job.Preset(j.Level); !ok {
				t.Fatalf("accepted job has bad level %q", j.Level)
			}
			if j.Workers == 1 && j.Fabric != "" {
				t.Fatalf("single-worker job kept fabric %q", j.Fabric)
			}
			sig := j.Signature()
			if !strings.HasSuffix(sig, ";") || !strings.HasPrefix(sig, "model=") {
				t.Fatalf("malformed signature %q", sig)
			}
		}

		// Same bytes through the HTTP intake: 200 for valid jobs (stub
		// executor), 4xx otherwise; a 5xx or a panic fails the fuzz.
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs?stream=0", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusOK && err == nil:
		case rec.Code == http.StatusBadRequest && err != nil:
			if !strings.Contains(rec.Body.String(), "serve: ") {
				t.Fatalf("400 body lacks the validation message: %q", rec.Body.String())
			}
		default:
			t.Fatalf("HTTP intake: status %d with parse err %v\nbody: %s", rec.Code, err, rec.Body.String())
		}
	})
}
