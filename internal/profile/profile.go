// Package profile implements Astra's profile index (§4.6 of the paper):
// a measurement store keyed by mangled strings that encode both the
// adaptive variable being measured and the higher-level context it was
// measured under.
//
// The key mangling is the mechanism that controls re-exploration: when the
// custom-wirer explores a different binding of a higher-level policy (say a
// different memory-allocation strategy), the context prefix changes, the
// lookup misses, and exactly the dependent measurements are re-taken —
// nothing else.
//
// The paper's §4.1 "one measurement suffices" assumption holds only with
// the GPU clock pinned. To stay robust on a noisy device the index stores
// multi-sample statistics per key (count, mean, variance via Welford's
// algorithm) and a per-index sample count decides when a key counts as
// measured — the default of one sample reproduces the paper's
// single-sample behaviour exactly.
package profile

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"astra/internal/obs"
)

// Key is a mangled (context, variable, choice) identifier.
type Key string

// K builds a key from a context prefix, a variable ID and a choice label.
// Components are joined with separators that never appear in IDs produced
// by the enumerator, so keys are unambiguous.
func K(context, varID, choice string) Key {
	return Key(context + "#" + varID + "=" + choice)
}

// Parts splits a key back into its context, variable ID and choice label —
// the inverse of K. Eviction uses it to find every context a variable was
// measured under.
func (k Key) Parts() (context, varID, choice string) {
	s := string(k)
	i := strings.Index(s, "#")
	if i < 0 {
		return "", "", s
	}
	context, s = s[:i], s[i+1:]
	j := strings.Index(s, "=")
	if j < 0 {
		return context, s, ""
	}
	return context, s[:j], s[j+1:]
}

// Measurement is the single-value view of a profiled key: the sample mean
// and the trial of the first sample. Callers that only need a point
// estimate (reports, Best) keep using it; Stats carries the full record.
type Measurement struct {
	ValueUs float64
	Trial   int // the exploration trial that produced the first sample
}

// Stats is the per-key multi-sample record: Welford running statistics over
// every sample observed for the key.
type Stats struct {
	// Count is the number of samples recorded.
	Count int
	// Mean is the running sample mean (µs).
	Mean float64
	// M2 is the running sum of squared deviations (Welford); variance
	// derives from it without catastrophic cancellation.
	M2 float64
	// Trial is the exploration trial of the first sample.
	Trial int
}

// Variance returns the unbiased sample variance (0 below two samples).
func (s Stats) Variance() float64 {
	if s.Count < 2 {
		return 0
	}
	return s.M2 / float64(s.Count-1)
}

// StdDev returns the sample standard deviation.
func (s Stats) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CIHalfWidthUs returns the half-width of the ~95% confidence interval of
// the mean (1.96 standard errors; 0 below two samples).
func (s Stats) CIHalfWidthUs() float64 {
	if s.Count < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.Count))
}

// interned is the process-wide canonical-string table: every key stored in
// any index goes through it, so concurrent episodes measuring the same
// (context, variable, choice) signatures share one backing string instead
// of retaining a per-episode copy each.
var interned sync.Map // string -> string

// Intern returns the canonical copy of s. The first caller's copy wins;
// later equal strings resolve to it and their own allocation becomes
// garbage immediately instead of being retained by a long-lived index.
//
//astra:hotpath
func Intern(s string) string {
	if c, ok := interned.Load(s); ok {
		return c.(string)
	}
	// lint:ok escape first-sighting slow path, once per distinct key
	c, _ := interned.LoadOrStore(s, s)
	return c.(string)
}

// numShards stripes the index: keys hash onto independent mutexes so
// concurrent exploration episodes sharing one store do not serialize on a
// single lock. 64 shards keeps contention negligible for any plausible
// GOMAXPROCS while the per-index footprint stays small.
const numShards = 64

// shardSeed is the maphash seed for key→shard assignment. It is per-process
// random, which is safe: shard choice never affects observable behaviour
// (all iteration goes through sorted snapshots), only lock distribution.
var shardSeed = maphash.MakeSeed()

type shard struct {
	mu sync.Mutex
	m  map[Key]Stats
}

// Index stores measurements and serves the custom-wirer's lookups. It is
// safe for concurrent use: the key space is striped across independent
// mutexes and the query/progress counters are atomics, so concurrent
// exploration episodes can share one store (cross-episode profile reuse)
// while each episode's own lookups stay exact.
type Index struct {
	shards   [numShards]shard
	need     atomic.Int64 // samples a key needs to count as measured (below 1 means 1)
	loadMode atomic.Int32 // LoadMode Load obeys (default LoadReplace)
	hits     atomic.Int64
	misses   atomic.Int64
	trial    atomic.Int64
	samples  atomic.Int64 // samples recorded this session (the explorer's progress signal)
	size     atomic.Int64 // stored keys, maintained on insert/evict/load

	// Optional telemetry, attached by Instrument.
	mHits    *obs.Counter
	mMisses  *obs.Counter
	mSize    *obs.Gauge
	mSamples *obs.Counter
}

// shardFor hashes a key onto its stripe.
//
//astra:hotpath
func (ix *Index) shardFor(k Key) *shard {
	return &ix.shards[maphash.String(shardSeed, string(k))%numShards]
}

// Instrument attaches a metrics registry: Has updates profile.hits /
// profile.misses, and Record keeps profile.index_size and profile.samples
// current.
func (ix *Index) Instrument(reg *obs.Registry) {
	ix.mHits = reg.Counter("profile.hits", "profile index lookups that hit")
	ix.mMisses = reg.Counter("profile.misses", "profile index lookups that missed")
	ix.mSize = reg.Gauge("profile.index_size", "measurements stored in the profile index")
	ix.mSamples = reg.Counter("profile.samples", "samples recorded into the profile index")
	ix.mSize.Set(float64(ix.size.Load()))
}

// NewIndex returns an empty profile index that needs one sample per key.
func NewIndex() *Index {
	ix := &Index{}
	for i := range ix.shards {
		ix.shards[i].m = make(map[Key]Stats)
	}
	return ix
}

// SetSamples sets how many samples a key needs before it counts as
// measured; below 1 means 1, the paper's §4.1 single-measurement regime
// and the default. Has reports true — and Record stops accepting samples —
// only once a key has them, so the explorer keeps a variable recording
// until enough evidence accumulates. Set it before exploration starts: it
// is part of what "measured" means.
func (ix *Index) SetSamples(n int) { ix.need.Store(int64(n)) }

// measured reports whether st has the samples a key needs. A stored key
// has at least one, which is all a need below 1 asks.
//
//astra:hotpath
func (ix *Index) measured(st Stats) bool { return int64(st.Count) >= ix.need.Load() }

// SetTrial tags subsequent recordings with the current exploration trial.
func (ix *Index) SetTrial(t int) { ix.trial.Store(int64(t)) }

// Record folds a sample into the key's statistics. Once the key has the
// samples it needs further samples are ignored: at the default of one this
// is exactly the paper's first-measurement-wins rule (§4.1 — mini-batch predictability makes one measurement suffice).
//
//astra:hotpath
func (ix *Index) Record(k Key, us float64) {
	sh := ix.shardFor(k)
	sh.mu.Lock()
	st, ok := sh.m[k]
	if ok && ix.measured(st) {
		sh.mu.Unlock()
		return
	}
	if !ok {
		st = Stats{Trial: int(ix.trial.Load())}
		ix.size.Add(1)
	}
	st.Count++
	d := us - st.Mean
	st.Mean += d / float64(st.Count)
	st.M2 += d * (us - st.Mean)
	sh.m[Key(Intern(string(k)))] = st
	sh.mu.Unlock()
	ix.samples.Add(1)
	if ix.mSamples != nil {
		ix.mSamples.Inc()
	}
	if ix.mSize != nil {
		ix.mSize.Set(float64(ix.size.Load()))
	}
}

// get returns the current statistics for k under the shard lock.
//
//astra:hotpath
func (ix *Index) get(k Key) (Stats, bool) {
	sh := ix.shardFor(k)
	sh.mu.Lock()
	st, ok := sh.m[k]
	sh.mu.Unlock()
	return st, ok
}

// Has reports whether the key counts as measured — present and with the
// samples it needs. It counts toward the hit/miss statistics.
//
//astra:hotpath
func (ix *Index) Has(k Key) bool {
	st, ok := ix.get(k)
	measured := ok && ix.measured(st)
	if measured {
		ix.hits.Add(1)
		if ix.mHits != nil {
			ix.mHits.Inc()
		}
	} else {
		ix.misses.Add(1)
		if ix.mMisses != nil {
			ix.mMisses.Inc()
		}
	}
	return measured
}

// Lookup returns the point-estimate view of k (the sample mean), measured
// or still short of samples alike.
func (ix *Index) Lookup(k Key) (Measurement, bool) {
	st, ok := ix.get(k)
	if !ok {
		return Measurement{}, false
	}
	return Measurement{ValueUs: st.Mean, Trial: st.Trial}, true
}

// LookupStats returns the full multi-sample record for k.
func (ix *Index) LookupStats(k Key) (Stats, bool) {
	return ix.get(k)
}

// SampleCount returns the number of samples recorded for k.
func (ix *Index) SampleCount(k Key) int {
	st, _ := ix.get(k)
	return st.Count
}

// Samples returns the total number of samples recorded this session. Unlike
// Len it grows while a key is re-sampled, which is what the explorer's
// progress guard watches.
func (ix *Index) Samples() int { return int(ix.samples.Load()) }

// better reports whether a beats b as the frozen choice. The primary order
// is the sample mean; when the means are statistically indistinguishable
// (overlapping ~95% confidence intervals) the lower upper-confidence-bound
// wins, so a consistently-fast choice beats one lucky sample. With
// single-sample statistics both intervals are empty and the comparison
// degenerates to the strict mean order of the seed implementation.
func better(a, b Stats) bool {
	if math.Abs(a.Mean-b.Mean) <= a.CIHalfWidthUs()+b.CIHalfWidthUs() {
		ua, ub := a.Mean+a.CIHalfWidthUs(), b.Mean+b.CIHalfWidthUs()
		if ua != ub {
			return ua < ub
		}
		return a.Mean < b.Mean
	}
	return a.Mean < b.Mean
}

// Best returns the winning choice among the given labels for (context,
// varID): lowest mean, with near-ties broken by confidence interval (see
// better). ok is false if none are measured.
func (ix *Index) Best(context, varID string, labels []string) (best int, us float64, ok bool) {
	best = -1
	var bs Stats
	for i, l := range labels {
		st, found := ix.get(K(context, varID, l))
		if !found {
			continue
		}
		if best < 0 || better(st, bs) {
			best, bs = i, st
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bs.Mean, true
}

// EvictPrefix removes every measurement whose key starts with the given
// context prefix and returns the number of entries removed. A fleet store
// that namespaces each job's keys under a job-signature base context (see
// wire.SessionConfig.ProfileContext) evicts a whole job's knowledge with one
// call when the store crosses its memory ceiling. Callers must pick prefixes
// that cannot alias across jobs (e.g. signatures with a terminator).
func (ix *Index) EvictPrefix(prefix string) int {
	if prefix == "" {
		return 0
	}
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if strings.HasPrefix(string(k), prefix) {
				delete(sh.m, k)
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		ix.size.Add(int64(-n))
		if ix.mSize != nil {
			ix.mSize.Set(float64(ix.size.Load()))
		}
	}
	return n
}

// EvictVar removes every measurement of varID across all contexts and
// returns the number of entries removed. Thawing a variable evicts its
// entries so the explorer re-measures it; entries of later siblings
// invalidate on their own through the context mangling once the thawed
// variable re-freezes to a different choice.
func (ix *Index) EvictVar(varID string) int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if _, v, _ := k.Parts(); v == varID {
				delete(sh.m, k)
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		ix.size.Add(int64(-n))
		if ix.mSize != nil {
			ix.mSize.Set(float64(ix.size.Load()))
		}
	}
	return n
}

// Len returns the number of stored measurements.
func (ix *Index) Len() int { return int(ix.size.Load()) }

// HitRate returns hits/(hits+misses) of Has queries; tests use it to verify
// that context changes invalidate exactly the dependent entries.
func (ix *Index) HitRate() float64 {
	h, m := ix.hits.Load(), ix.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// snapshot copies every stored (key, stats) pair. Iteration-order
// independence is the caller's job (sort, or a keyed map).
func (ix *Index) snapshot() map[Key]Stats {
	out := make(map[Key]Stats, ix.Len())
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		for k, st := range sh.m {
			out[k] = st
		}
		sh.mu.Unlock()
	}
	return out
}

// Entry is one stored (key, statistics) pair of a sorted snapshot.
type Entry struct {
	Key   Key
	Stats Stats
}

// Entries returns a point-in-time copy of every stored measurement, sorted
// by key. Bulk consumers that must stay deterministic regardless of shard
// layout — cost-model training over a fleet store, audits, exports — iterate
// this instead of the shards.
func (ix *Index) Entries() []Entry {
	snap := ix.snapshot()
	out := make([]Entry, 0, len(snap))
	for k, st := range snap { // lint:ok map-range sorted below
		out = append(out, Entry{Key: k, Stats: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Dump renders the index sorted by key, for reports and debugging.
func (ix *Index) Dump() string {
	snap := ix.snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		st := snap[Key(k)]
		if st.Count > 1 {
			fmt.Fprintf(&b, "%s -> %.3fus ±%.3f (n=%d, trial %d)\n", k, st.Mean, st.CIHalfWidthUs(), st.Count, st.Trial)
		} else {
			fmt.Fprintf(&b, "%s -> %.3fus (trial %d)\n", k, st.Mean, st.Trial)
		}
	}
	return b.String()
}

// snapshotVersion is the serialized format, the only one Load accepts.
// Version 2 added multi-sample statistics; the single-sample files before
// it carried no version field and are rejected.
const snapshotVersion = 2

// snapshotEntry is the serialized per-key record of the v2 format.
type snapshotEntry struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2,omitempty"`
	Trial int     `json:"trial"`
}

type snapshotFile struct {
	Version int                      `json:"version"`
	Entries map[string]snapshotEntry `json:"entries"`
}

// Save serializes the index as versioned JSON. A saved index warm-starts a
// later session of the same job: the enumerator is deterministic, so the
// keys line up and exploration resumes (or completes) instantly — the
// profile-index analogue of a compilation cache.
func (ix *Index) Save(w io.Writer) error {
	m := ix.snapshot()
	snap := snapshotFile{Version: snapshotVersion, Entries: make(map[string]snapshotEntry, len(m))}
	for k, st := range m {
		snap.Entries[string(k)] = snapshotEntry{Count: st.Count, Mean: st.Mean, M2: st.M2, Trial: st.Trial}
	}
	return json.NewEncoder(w).Encode(&snap)
}

// LoadMode selects how Load treats the index's existing contents and
// session counters.
type LoadMode int32

// Load modes.
const (
	// LoadReplace is the historical behaviour: the snapshot replaces the
	// contents wholesale and the query statistics, session sample counter
	// and trial tag reset — right for a fresh session warm-starting from a
	// file, where pre-load counters belong to a different session.
	LoadReplace LoadMode = iota
	// LoadMerge folds the snapshot into the live contents instead: keys
	// already present keep their statistics (first-measurement-wins, like
	// Record), only absent keys are inserted, and the hit/miss/sample/trial
	// counters are preserved. A long-running server importing fleet
	// snapshots mid-run must use this mode — under LoadReplace an import
	// would silently zero the fleet's hit-rate metrics and discard every
	// measurement recorded since the snapshot was taken.
	LoadMerge
)

// SetLoadMode installs the mode subsequent Load calls obey (default
// LoadReplace, the historical behaviour).
func (ix *Index) SetLoadMode(m LoadMode) { ix.loadMode.Store(int32(m)) }

// Load installs a Save'd snapshot; a snapshot of any other format version
// is an error. Under the default LoadReplace mode the snapshot replaces the
// contents and resets the query statistics, session sample counter and
// trial tag — counters accumulated before the load belong to a different
// session, and keeping them would corrupt warm-start reporting and the
// explorer's progress guard. Under LoadMerge (SetLoadMode) the snapshot
// merges into the live contents and every counter is preserved.
func (ix *Index) Load(r io.Reader) error {
	var raw struct {
		Version int                        `json:"version"`
		Entries map[string]json.RawMessage `json:"entries"`
	}
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("profile: load: %w", err)
	}
	if raw.Version != snapshotVersion {
		return fmt.Errorf("profile: load: snapshot version %d, want %d", raw.Version, snapshotVersion)
	}
	m := make(map[Key]Stats, len(raw.Entries))
	for k, msg := range raw.Entries {
		var e snapshotEntry
		if err := json.Unmarshal(msg, &e); err != nil {
			return fmt.Errorf("profile: load: entry %q: %w", k, err)
		}
		count := e.Count
		if count < 1 {
			count = 1
		}
		m[Key(Intern(k))] = Stats{Count: count, Mean: e.Mean, M2: e.M2, Trial: e.Trial}
	}
	if LoadMode(ix.loadMode.Load()) == LoadMerge {
		// Merge: live entries win (first-measurement-wins, matching
		// Record); counters stay — a live server's fleet statistics must
		// survive a snapshot import.
		added := 0
		for k, st := range m {
			sh := ix.shardFor(k)
			sh.mu.Lock()
			if _, ok := sh.m[k]; !ok {
				sh.m[k] = st
				added++
			}
			sh.mu.Unlock()
		}
		if added > 0 {
			ix.size.Add(int64(added))
		}
		if ix.mSize != nil {
			ix.mSize.Set(float64(ix.size.Load()))
		}
		return nil
	}
	// Replace contents wholesale: snapshot decode succeeded, so swap in the
	// new entries shard by shard. Size bookkeeping is delta-based so a
	// Record racing the load cannot strand the counter.
	delta := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		delta -= len(sh.m)
		sh.m = make(map[Key]Stats)
		sh.mu.Unlock()
	}
	for k, st := range m {
		sh := ix.shardFor(k)
		sh.mu.Lock()
		if _, ok := sh.m[k]; !ok {
			delta++
		}
		sh.m[k] = st
		sh.mu.Unlock()
	}
	ix.size.Add(int64(delta))
	ix.hits.Store(0)
	ix.misses.Store(0)
	ix.trial.Store(0)
	ix.samples.Store(0)
	if ix.mSize != nil {
		ix.mSize.Set(float64(ix.size.Load()))
	}
	return nil
}
