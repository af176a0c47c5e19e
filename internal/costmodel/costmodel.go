// Package costmodel implements a learned cost-model prior for Astra's
// online exploration — the AutoTVM-style "learning to optimize tensor
// programs" direction from PAPERS.md, adapted to Astra's adaptive-variable
// vocabulary (see docs/COSTMODEL.md).
//
// The model is deliberately not a gradient-boosted anything: it is a
// hierarchy of bucketed running means over log(µs), keyed by feature tuples
// extracted from adaptive-variable IDs and session metadata. Three backoff
// levels trade specificity for transfer:
//
//	L0  model | scale | varID | label | batch-bucket | workers | fabric
//	L1  model | varID | label | workers | fabric      (neighbour shapes)
//	L2  varClass | label                              (global label effect)
//
// A prediction answers from the most specific level that has data. Backoff
// is the transfer mechanism: a new batch size of a known model answers from
// L1 (same variables, different shape), a brand-new model answers from L2
// (e.g. "chunk=1 is always dominated by launch overhead"). Training is
// incremental (Observe) or bulk from a profile.Index snapshot (TrainIndex);
// both are deterministic functions of the observation sequence, which keeps
// exploration byte-identical at any parallelism — planning happens per
// session against a model trained before the session starts, or against
// observations the session itself made in its own deterministic order.
//
// The model predicts in log space: schedule costs span orders of magnitude
// across variables, and ratios — not differences — are what rank and prune
// decisions need.
package costmodel

import (
	"math"
	"strings"
	"sync"

	"astra/internal/obs"
	"astra/internal/profile"
)

// Meta pins the session facts the feature tuples draw on. The zero value is
// valid (everything lands in catch-all buckets); fill what you know.
type Meta struct {
	// Model is the zoo model name, Scale its sizing ("default", "tiny").
	Model string
	Scale string
	// Batch is the per-device mini-batch size.
	Batch int
	// Workers is the data-parallel degree, Fabric the interconnect name
	// (both zero/empty for single-GPU sessions).
	Workers int
	Fabric  string
}

// varClass buckets an adaptive-variable ID into the enumerator's variable
// families — the coarsest feature the L2 backoff level keys on. The strings
// are constants so classification never allocates.
func varClass(varID string) string {
	switch {
	case strings.HasSuffix(varID, ".chunk"):
		return "chunk"
	case strings.HasSuffix(varID, ".lib"):
		return "lib"
	case varID == "comm.bucket_kb":
		return "comm.bucket"
	case varID == "comm.place":
		return "comm.place"
	case varID == "alloc":
		return "alloc"
	case strings.Contains(varID, ".ep"):
		// Stream-assignment leaves ("se0.ep1.c2") and the exhaustive
		// composites over them ("se0.ep1") share timing structure.
		return "stream"
	default:
		return "other"
	}
}

// batchBucket coarsens a per-device batch size to its power-of-two bucket
// (the bit length), so L0 groups shapes the way GEMM cost scales.
func batchBucket(batch int) int {
	b := 0
	for batch > 0 {
		b++
		batch >>= 1
	}
	return b
}

// FNV-1a 64, inlined: the prediction hot path hashes feature tuples
// directly into map keys with zero allocations. Each part's bytes are
// followed by '|', so adjacent parts cannot run into one another.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//astra:hotpath
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return (h ^ '|') * fnvPrime64
}

//astra:hotpath
func hashUint(h uint64, v int) uint64 {
	if v < 0 {
		v = 0
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for ; i < len(buf); i++ {
		h = (h ^ uint64(buf[i])) * fnvPrime64
	}
	return (h ^ '|') * fnvPrime64
}

//astra:hotpath
func hashL0(meta Meta, varID, label string) uint64 {
	h := hashString(fnvOffset64, "0")
	h = hashString(h, meta.Model)
	h = hashString(h, meta.Scale)
	h = hashString(h, varID)
	h = hashString(h, label)
	h = hashUint(h, batchBucket(meta.Batch))
	h = hashUint(h, meta.Workers)
	return hashString(h, meta.Fabric)
}

//astra:hotpath
func hashL1(meta Meta, varID, label string) uint64 {
	h := hashString(fnvOffset64, "1")
	h = hashString(h, meta.Model)
	h = hashString(h, varID)
	h = hashString(h, label)
	h = hashUint(h, meta.Workers)
	return hashString(h, meta.Fabric)
}

//astra:hotpath
func hashL2(varID, label string) uint64 {
	h := hashString(fnvOffset64, "2")
	h = hashString(h, varClass(varID))
	return hashString(h, label)
}

// maxBucketWeight saturates a bucket's sample count: beyond it the running
// mean becomes an exponential moving average with weight 1/maxBucketWeight,
// so fresh observations (post-drift re-measurements, fleet updates) always
// move a bucket instead of drowning in its history.
const maxBucketWeight = 64

// bucket is one feature tuple's running statistic over log(µs).
type bucket struct {
	n    int     // saturating observation weight
	mean float64 // running mean of log(µs)
}

// Model is the learned cost model: a concurrent-safe bucket table over the
// three feature levels. A Model may be shared by concurrent sessions (the
// serve layer trains one per tenant); Predict takes a read lock, Observe a
// write lock.
type Model struct {
	mu      sync.RWMutex
	buckets map[uint64]*bucket
	updates int64

	mUpdates *obs.Counter
	mBuckets *obs.Gauge
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{buckets: make(map[uint64]*bucket)}
}

// Instrument attaches a metrics registry: costmodel.train_updates counts
// observations folded in, costmodel.buckets tracks the table size.
func (m *Model) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mUpdates = reg.Counter("costmodel.train_updates", "observations folded into the cost model")
	m.mBuckets = reg.Gauge("costmodel.buckets", "feature buckets in the cost model")
	m.mUpdates.Add(float64(m.updates))
	m.mBuckets.Set(float64(len(m.buckets)))
}

// Updates returns how many observations have been folded in.
func (m *Model) Updates() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.updates
}

// Len returns the number of feature buckets.
func (m *Model) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.buckets)
}

// observeBucket folds x into the bucket at hash h, creating it on first
// sight. Caller holds the write lock.
func (m *Model) observeBucket(h uint64, x float64) {
	b := m.buckets[h]
	if b == nil {
		b = &bucket{}
		m.buckets[h] = b
	}
	if b.n < maxBucketWeight {
		b.n++
	}
	b.mean += (x - b.mean) / float64(b.n)
}

// Observe folds one measurement into every feature level. Non-positive and
// non-finite values are ignored — log space is the model's native scale.
func (m *Model) Observe(meta Meta, varID, label string, us float64) {
	if !(us > 0) || math.IsInf(us, 1) {
		return
	}
	x := math.Log(us)
	m.mu.Lock()
	m.observeBucket(hashL0(meta, varID, label), x)
	m.observeBucket(hashL1(meta, varID, label), x)
	m.observeBucket(hashL2(varID, label), x)
	m.updates++
	nb := len(m.buckets)
	mu, mb := m.mUpdates, m.mBuckets
	m.mu.Unlock()
	if mu != nil {
		mu.Inc()
	}
	if mb != nil {
		mb.Set(float64(nb))
	}
}

// TrainIndex bulk-trains the model from a profile index snapshot — the
// fleet store as training set. Iteration is over the sorted entry list, so
// the resulting model state is independent of shard layout and map order.
// The context component of each key is deliberately dropped: the model
// learns context-free label effects, which is what lets knowledge transfer
// across prefix digests, fork branches and job namespaces. Returns the
// number of observations folded in.
func (m *Model) TrainIndex(ix *profile.Index, meta Meta) int {
	n := 0
	for _, e := range ix.Entries() {
		_, varID, label := e.Key.Parts()
		if varID == "" || label == "" {
			continue
		}
		m.Observe(meta, varID, label, e.Stats.Mean)
		n++
	}
	return n
}

// Predict returns the predicted log(µs) for (varID, label) under meta, the
// backoff level that answered (0 most specific), and whether any level had
// data. The hot path: zero allocations, read lock only.
//
//astra:hotpath
func (m *Model) Predict(meta Meta, varID, label string) (logUs float64, level int, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if b := m.buckets[hashL0(meta, varID, label)]; b != nil {
		return b.mean, 0, true
	}
	if b := m.buckets[hashL1(meta, varID, label)]; b != nil {
		return b.mean, 1, true
	}
	if b := m.buckets[hashL2(varID, label)]; b != nil {
		return b.mean, 2, true
	}
	return 0, 0, false
}

// Decay halves every bucket's observation weight, making the next
// observations move the means roughly twice as fast while predictions stay
// available. The drift path calls it (via Planner.Invalidate): after a
// device shifts, the old knowledge should rank but not resist relearning.
func (m *Model) Decay() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.buckets { // lint:ok map-range per-bucket op, order-independent
		if b.n > 1 {
			b.n /= 2
		}
	}
}
