package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"astra/internal/costmodel"
	"astra/internal/job"
)

// Job is one wiring request a tenant submits: which model at which scale,
// which adaptation preset, how many data-parallel workers over which
// fabric. The server explores it on the shared simulated substrate and
// streams back convergence events plus the wired result.
type Job struct {
	// Tenant names the submitting client (reporting only; default "anon").
	Tenant string `json:"tenant,omitempty"`
	// Model is a zoo model name (models.Names).
	Model string `json:"model"`
	// Scale sizes the model: "tiny" (default; the test scale) or
	// "default" (the paper's §6.1 evaluation scale — minutes per cold job).
	Scale string `json:"scale,omitempty"`
	// Batch is the per-device mini-batch size (default 4).
	Batch int `json:"batch,omitempty"`
	// Level selects the adaptation dimensions: F, FK, FKS or All
	// (default FK).
	Level string `json:"level,omitempty"`
	// Streams overrides the preset's stream count (0 keeps the preset's).
	Streams int `json:"streams,omitempty"`
	// Workers is the data-parallel degree (default 1; 2..8 simulates a
	// multi-GPU session with explored gradient bucketing).
	Workers int `json:"workers,omitempty"`
	// Fabric names the gradient-exchange interconnect for Workers >= 2:
	// pcie3 (default) or nvlink1.
	Fabric string `json:"fabric,omitempty"`
	// Steps is how many wired mini-batches to run after convergence
	// (default 1; the last one's time is the reported WiredUs).
	Steps int `json:"steps,omitempty"`
	// Prior opts the session into cost-model guidance (see
	// docs/COSTMODEL.md): the tenant's shared model re-ranks and prunes
	// candidate visits, typically cutting trials-to-freeze on shapes the
	// tenant has explored neighbours of. Off by default — every session
	// still trains the tenant's model either way, but only opted-in jobs
	// let it shape exploration, so the fleet's exact warm-start guarantees
	// (shared == solo, byte-identical results) are untouched unless a
	// tenant asks.
	Prior bool `json:"prior,omitempty"`
}

// Job-field limits: hostile requests must not be able to queue unbounded
// work behind one admission slot.
const (
	maxTenantLen = 64
	maxBatch     = 512
	maxStreams   = 8
	maxWorkers   = 8
	maxSteps     = 64
)

// ValidationError rejects a malformed job; it always names the valid
// choices for the offending field so a client can self-correct.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return "serve: " + e.msg }

func invalidf(format string, args ...interface{}) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// ParseJob decodes and validates a job request. Unknown fields, trailing
// garbage and out-of-range values are all rejected with a *ValidationError
// naming the valid choices; defaults are applied to omitted fields. It
// never panics, whatever the input.
func ParseJob(data []byte) (Job, error) {
	var j Job
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Job{}, invalidf("bad job JSON: %v (want an object like {\"model\":\"sublstm\",\"level\":\"FK\"})", err)
	}
	if dec.More() {
		return Job{}, invalidf("bad job JSON: trailing data after the job object")
	}
	return j.Normalize()
}

// Normalize validates the job and returns it with defaults applied — the
// normalization Submit performs on intake, also for callers that need the
// canonical shape (e.g. to compute its Signature) without submitting.
// serve's own defaults and hostile-input limits come first, then the
// shape's names.
func (j Job) Normalize() (Job, error) {
	if j.Tenant == "" {
		j.Tenant = "anon"
	}
	if len(j.Tenant) > maxTenantLen {
		return Job{}, invalidf("tenant name longer than %d bytes", maxTenantLen)
	}
	if strings.ContainsAny(j.Tenant, "#\n\r") {
		return Job{}, invalidf("tenant name must not contain '#' or newlines")
	}
	if j.Scale == "" {
		j.Scale = job.Tiny
	}
	if j.Batch == 0 {
		j.Batch = 4
	}
	if j.Batch < 1 || j.Batch > maxBatch {
		return Job{}, invalidf("batch %d out of range (valid: 1..%d)", j.Batch, maxBatch)
	}
	if j.Level == "" {
		j.Level = "FK"
	}
	if j.Streams < 0 || j.Streams > maxStreams {
		return Job{}, invalidf("streams %d out of range (valid: 0..%d, 0 = preset default)", j.Streams, maxStreams)
	}
	if j.Workers == 0 {
		j.Workers = 1
	}
	if j.Workers < 1 || j.Workers > maxWorkers {
		return Job{}, invalidf("workers %d out of range (valid: 1..%d)", j.Workers, maxWorkers)
	}
	if j.Steps == 0 {
		j.Steps = 1
	}
	if j.Steps < 1 || j.Steps > maxSteps {
		return Job{}, invalidf("steps %d out of range (valid: 1..%d)", j.Steps, maxSteps)
	}
	shape, err := j.Shape().Normalize()
	if err != nil {
		return Job{}, &ValidationError{msg: err.Error()}
	}
	j.Fabric = shape.Fabric
	return j, nil
}

// Shape is the job's shape: every field but the tenant, the step count and
// the prior.
func (j Job) Shape() job.Shape {
	return job.Shape{Model: j.Model, Scale: j.Scale, Batch: j.Batch, Level: j.Level,
		Streams: j.Streams, Workers: j.Workers, Fabric: j.Fabric}
}

// Signature is the job's shape identity (job.Shape.Signature): every field
// that affects what the exploration measures, and nothing else (the tenant
// is deliberately excluded — cross-tenant reuse is the point).
func (j Job) Signature() string { return j.Shape().Signature() }

// costMeta is the normalized job's feature tuple for the cost model.
func (j Job) costMeta() costmodel.Meta {
	return costmodel.Meta{Model: j.Model, Scale: j.Scale, Batch: j.Batch, Workers: j.Workers, Fabric: j.Fabric}
}
