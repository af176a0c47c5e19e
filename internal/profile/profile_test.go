package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"astra/internal/obs"
)

func TestRecordOnce(t *testing.T) {
	ix := NewIndex()
	k := K("ctx", "var", "a")
	ix.SetTrial(3)
	ix.Record(k, 10)
	ix.SetTrial(4)
	ix.Record(k, 99) // predictable workload: first measurement wins
	m, ok := ix.Lookup(k)
	if !ok || m.ValueUs != 10 || m.Trial != 3 {
		t.Fatalf("Lookup = %+v, %v", m, ok)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestKeyManglingSeparatesContexts(t *testing.T) {
	// The same variable/choice under two allocation strategies must be two
	// distinct entries — this is the §4.6 invalidation mechanism.
	ix := NewIndex()
	ix.Record(K("/alloc=a0", "gemm3", "cublas"), 5)
	if ix.Has(K("/alloc=a1", "gemm3", "cublas")) {
		t.Fatal("context change should miss")
	}
	if !ix.Has(K("/alloc=a0", "gemm3", "cublas")) {
		t.Fatal("same context should hit")
	}
	if ix.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", ix.HitRate())
	}
}

func TestKeyUnambiguity(t *testing.T) {
	// No two distinct (ctx, var, choice) triples may collide.
	if K("a", "b", "c") == K("a#b", "", "c") || K("a", "b", "c") == K("a", "b=c", "") {
		t.Fatal("key mangling is ambiguous")
	}
}

func TestBest(t *testing.T) {
	ix := NewIndex()
	labels := []string{"cublas", "oai1", "oai2"}
	if _, _, ok := ix.Best("", "v", labels); ok {
		t.Fatal("Best on empty index")
	}
	ix.Record(K("", "v", "cublas"), 10)
	ix.Record(K("", "v", "oai1"), 7)
	best, us, ok := ix.Best("", "v", labels)
	if !ok || best != 1 || us != 7 {
		t.Fatalf("Best = %d/%v/%v", best, us, ok)
	}
	ix.Record(K("", "v", "oai2"), 3)
	best, us, _ = ix.Best("", "v", labels)
	if best != 2 || us != 3 {
		t.Fatalf("Best = %d/%v", best, us)
	}
}

func TestBestProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 || len(vals) > 20 {
			return true
		}
		ix := NewIndex()
		labels := make([]string, len(vals))
		minI, minV := 0, vals[0]
		for i, v := range vals {
			if v != v { // NaN breaks ordering; the wirer never produces it
				return true
			}
			labels[i] = string(rune('a' + i))
			ix.Record(K("c", "v", labels[i]), v)
			if v < minV {
				minI, minV = i, v
			}
		}
		best, us, ok := ix.Best("c", "v", labels)
		return ok && us == minV && vals[best] == minV && best <= minI+len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDump(t *testing.T) {
	ix := NewIndex()
	ix.Record(K("b", "v", "x"), 2)
	ix.Record(K("a", "v", "x"), 1)
	d := ix.Dump()
	if !strings.Contains(d, "a#v=x -> 1.000us") {
		t.Fatalf("Dump = %q", d)
	}
	if strings.Index(d, "a#v=x") > strings.Index(d, "b#v=x") {
		t.Fatal("Dump not sorted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix := NewIndex()
	ix.SetTrial(7)
	ix.Record(K("ctx", "v", "a"), 12.5)
	ix.Record(K("", "w", "b"), 3)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2 := NewIndex()
	if err := ix2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 2 {
		t.Fatalf("Len = %d", ix2.Len())
	}
	m, ok := ix2.Lookup(K("ctx", "v", "a"))
	if !ok || m.ValueUs != 12.5 || m.Trial != 7 {
		t.Fatalf("Lookup = %+v %v", m, ok)
	}
	if err := ix2.Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestHitRateResetAfterLoad(t *testing.T) {
	// Stats accumulated before a snapshot is loaded belong to a different
	// session; a warm-started index must report only its own queries.
	ix := NewIndex()
	ix.Record(K("", "v", "a"), 1)
	for i := 0; i < 10; i++ {
		ix.Has(K("", "v", "missing")) // drive the hit rate to 0
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if ix.HitRate() != 0 {
		t.Fatalf("stale hit rate %v after Load", ix.HitRate())
	}
	if !ix.Has(K("", "v", "a")) {
		t.Fatal("loaded entry missing")
	}
	if ix.HitRate() != 1 {
		t.Fatalf("warm hit rate = %v, want 1 (stale pre-load stats leaked)", ix.HitRate())
	}
	// The trial tag is reset too: new recordings start from trial 0.
	ix.Record(K("", "w", "b"), 2)
	if m, _ := ix.Lookup(K("", "w", "b")); m.Trial != 0 {
		t.Fatalf("post-load recording tagged trial %d", m.Trial)
	}
}

func TestKeyParts(t *testing.T) {
	ctx, v, c := K("/alloc=a0/se:1a2b", "gemm3", "cublas").Parts()
	if ctx != "/alloc=a0/se:1a2b" || v != "gemm3" || c != "cublas" {
		t.Fatalf("Parts = %q %q %q", ctx, v, c)
	}
	ctx, v, c = K("", "v", "x").Parts()
	if ctx != "" || v != "v" || c != "x" {
		t.Fatalf("Parts = %q %q %q", ctx, v, c)
	}
}

func TestMultiSampleStats(t *testing.T) {
	ix := NewIndex()
	ix.SetSamples(3)
	k := K("", "v", "a")
	for i, us := range []float64{10, 12, 14} {
		if ix.Has(k) {
			t.Fatalf("key measured after %d of 3 samples", i)
		}
		ix.Record(k, us)
	}
	if !ix.Has(k) {
		t.Fatal("key not measured after 3 samples")
	}
	st, ok := ix.LookupStats(k)
	if !ok || st.Count != 3 || st.Mean != 12 {
		t.Fatalf("Stats = %+v %v", st, ok)
	}
	if v := st.Variance(); math.Abs(v-4) > 1e-9 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if st.CIHalfWidthUs() <= 0 {
		t.Fatal("no confidence interval with 3 samples")
	}
	// Enough samples: further samples are ignored (first-N wins).
	ix.Record(k, 1000)
	if st, _ := ix.LookupStats(k); st.Count != 3 || st.Mean != 12 {
		t.Fatalf("post-satisfaction sample accepted: %+v", st)
	}
	if ix.Samples() != 3 {
		t.Fatalf("Samples = %d", ix.Samples())
	}
	if ix.SampleCount(k) != 3 || ix.SampleCount(K("", "v", "b")) != 0 {
		t.Fatal("SampleCount wrong")
	}
	// A count below 1 means the default single sample.
	for _, n := range []int{0, -2} {
		ix := NewIndex()
		ix.SetSamples(n)
		ix.Record(k, 10)
		ix.Record(k, 1000)
		if st, _ := ix.LookupStats(k); !ix.Has(k) || st.Count != 1 {
			t.Fatalf("SetSamples(%d): measured %v after %d samples, want one", n, ix.Has(k), st.Count)
		}
	}
}

func TestBestBreaksNearTiesByCI(t *testing.T) {
	// Choice a: lucky single-look mean 9.9 but huge spread. Choice b:
	// consistent 10.0 ± tiny. The CIs overlap, so the lower upper-bound
	// (b) must win despite a's lower mean.
	ix := NewIndex()
	ix.SetSamples(3)
	for _, us := range []float64{4, 9.8, 15.9} { // mean 9.9, wide CI
		ix.Record(K("", "v", "a"), us)
	}
	for _, us := range []float64{9.9, 10.0, 10.1} { // mean 10, narrow CI
		ix.Record(K("", "v", "b"), us)
	}
	best, _, ok := ix.Best("", "v", []string{"a", "b"})
	if !ok || best != 1 {
		t.Fatalf("Best = %d (ok=%v), want 1 (consistent choice)", best, ok)
	}
	// Clearly separated means: plain mean order regardless of spread.
	for _, us := range []float64{1, 2, 3} {
		ix.Record(K("", "v2", "fast"), us)
	}
	for _, us := range []float64{50, 51, 52} {
		ix.Record(K("", "v2", "slow"), us)
	}
	if best, _, _ := ix.Best("", "v2", []string{"slow", "fast"}); best != 1 {
		t.Fatalf("separated means: Best = %d", best)
	}
}

func TestVersionedSnapshotRoundTrip(t *testing.T) {
	ix := NewIndex()
	ix.SetSamples(3)
	ix.SetTrial(5)
	k := K("ctx", "v", "a")
	for _, us := range []float64{10, 12, 14} {
		ix.Record(k, us)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version":2`) {
		t.Fatalf("snapshot not versioned: %s", buf.String())
	}
	ix2 := NewIndex()
	ix2.SetSamples(3)
	if err := ix2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	st, ok := ix2.LookupStats(k)
	if !ok || st.Count != 3 || st.Mean != 12 || st.Trial != 5 {
		t.Fatalf("loaded stats = %+v %v", st, ok)
	}
	if math.Abs(st.Variance()-4) > 1e-9 {
		t.Fatalf("variance lost in round trip: %v", st.Variance())
	}
	if !ix2.Has(k) {
		t.Fatal("loaded multi-sample entry not measured")
	}
}

// TestLegacySingleSampleSnapshotRejected: a snapshot of any version but 2
// — the pre-versioning single-sample format, or one from the future — is
// an error, and the index keeps its contents.
func TestLegacySingleSampleSnapshotRejected(t *testing.T) {
	ix := NewIndex()
	ix.Record(K("ctx", "v", "a"), 1)
	for _, snap := range []string{
		v1Snapshot,
		`{"version":1,"entries":{}}`,
		`{"version":99,"entries":{}}`,
	} {
		if err := ix.Load(strings.NewReader(snap)); err == nil || !strings.Contains(err.Error(), "snapshot version") {
			t.Errorf("Load(%s) = %v, want a version error", snap, err)
		}
	}
	if ix.Len() != 1 || !ix.Has(K("ctx", "v", "a")) {
		t.Fatalf("rejected load changed the index: Len = %d", ix.Len())
	}
}

func TestLoadResetsSampleStatistics(t *testing.T) {
	ix := NewIndex()
	ix.SetSamples(2)
	ix.Record(K("", "v", "a"), 1)
	ix.Record(K("", "v", "a"), 2)
	if ix.Samples() != 2 {
		t.Fatalf("Samples = %d", ix.Samples())
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(&buf); err != nil {
		t.Fatal(err)
	}
	// The session sample counter resets with hits/misses; the per-key
	// statistics come back from the snapshot.
	if ix.Samples() != 0 {
		t.Fatalf("Samples = %d after Load, want 0", ix.Samples())
	}
	if st, _ := ix.LookupStats(K("", "v", "a")); st.Count != 2 {
		t.Fatalf("per-key stats lost: %+v", st)
	}
}

func TestEvictVar(t *testing.T) {
	ix := NewIndex()
	ix.Record(K("/alloc=a0", "gemm3", "cublas"), 5)
	ix.Record(K("/alloc=a1", "gemm3", "oai1"), 6)
	ix.Record(K("/alloc=a0", "gemm4", "cublas"), 7)
	if n := ix.EvictVar("gemm3"); n != 2 {
		t.Fatalf("evicted %d, want 2 (all contexts)", n)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.Has(K("/alloc=a0", "gemm3", "cublas")) {
		t.Fatal("evicted entry still measured")
	}
	if !ix.Has(K("/alloc=a0", "gemm4", "cublas")) {
		t.Fatal("unrelated entry evicted")
	}
	if n := ix.EvictVar("nothing"); n != 0 {
		t.Fatalf("evicted %d for unknown var", n)
	}
}

func TestInstrumentedIndex(t *testing.T) {
	reg := obs.NewRegistry()
	ix := NewIndex()
	ix.Instrument(reg)
	ix.Record(K("", "v", "a"), 1)
	ix.Has(K("", "v", "a"))
	ix.Has(K("", "v", "b"))
	if got := reg.Counter("profile.hits", "").Value(); got != 1 {
		t.Fatalf("profile.hits = %v", got)
	}
	if got := reg.Counter("profile.misses", "").Value(); got != 1 {
		t.Fatalf("profile.misses = %v", got)
	}
	if got := reg.Gauge("profile.index_size", "").Value(); got != 1 {
		t.Fatalf("profile.index_size = %v", got)
	}
	if got := reg.Counter("profile.samples", "").Value(); got != 1 {
		t.Fatalf("profile.samples = %v", got)
	}
}

// TestLoadMergePreservesCounters pins the live-server load semantics: under
// LoadMerge a snapshot import must neither zero the fleet's query/progress
// counters nor clobber measurements recorded since the snapshot was taken.
// (Under the default LoadReplace, Load resetting the counters is intended
// single-job warm-start behaviour — pinned by TestSaveLoadResetsCounters-style
// assertions above — but on a long-running server it silently zeroed the
// fleet hit-rate metrics mid-run.)
func TestLoadMergePreservesCounters(t *testing.T) {
	donor := NewIndex()
	donor.Record(K("jobA;", "v", "a"), 10)
	donor.Record(K("jobA;", "v", "b"), 20)
	var snap bytes.Buffer
	if err := donor.Save(&snap); err != nil {
		t.Fatal(err)
	}

	ix := NewIndex()
	ix.SetLoadMode(LoadMerge)
	ix.SetTrial(7)
	ix.Record(K("jobA;", "v", "a"), 99) // live measurement, must win over the snapshot's 10
	ix.Record(K("jobB;", "w", "x"), 5)
	ix.Has(K("jobA;", "v", "a")) // hit
	ix.Has(K("jobB;", "w", "y")) // miss
	if err := ix.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if got := ix.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v after merge load, want 0.5 preserved", got)
	}
	if got := ix.Samples(); got != 2 {
		t.Fatalf("Samples = %d after merge load, want 2 preserved", got)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (one merged-in key)", ix.Len())
	}
	if m, ok := ix.Lookup(K("jobA;", "v", "a")); !ok || m.ValueUs != 99 {
		t.Fatalf("live entry clobbered by merge: %+v ok=%v", m, ok)
	}
	if m, ok := ix.Lookup(K("jobA;", "v", "b")); !ok || m.ValueUs != 20 {
		t.Fatalf("snapshot entry not merged: %+v ok=%v", m, ok)
	}
	// Trial tag preserved too: the next recording still carries trial 7.
	ix.Record(K("jobB;", "w", "y"), 6)
	if st, _ := ix.LookupStats(K("jobB;", "w", "y")); st.Trial != 7 {
		t.Fatalf("trial tag reset by merge load: %+v", st)
	}

	// Flipping back restores the historical replace+reset behaviour.
	ix.SetLoadMode(LoadReplace)
	var snap2 bytes.Buffer
	if err := donor.Save(&snap2); err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(&snap2); err != nil {
		t.Fatal(err)
	}
	if ix.Samples() != 0 || ix.HitRate() != 0 {
		t.Fatalf("LoadReplace kept counters: samples=%d hitrate=%v", ix.Samples(), ix.HitRate())
	}
	if ix.Len() != 2 {
		t.Fatalf("LoadReplace Len = %d, want 2", ix.Len())
	}
}

func TestEvictPrefix(t *testing.T) {
	ix := NewIndex()
	ix.Record(K("model=a;batch=1;", "v", "x"), 1)
	ix.Record(K("model=a;batch=1;/sub", "v2", "y"), 2)
	ix.Record(K("model=a;batch=12;", "v", "x"), 3)
	if n := ix.EvictPrefix(""); n != 0 {
		t.Fatalf("empty prefix evicted %d", n)
	}
	if n := ix.EvictPrefix("model=a;batch=1;"); n != 2 {
		t.Fatalf("evicted %d, want 2", n)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	if !ix.Has(K("model=a;batch=12;", "v", "x")) {
		t.Fatal("sibling signature evicted")
	}
	if n := ix.EvictPrefix("model=zzz;"); n != 0 {
		t.Fatalf("unknown prefix evicted %d", n)
	}
}
