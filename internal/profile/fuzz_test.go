package profile

import (
	"bytes"
	"testing"
)

// v1Snapshot is the pre-versioning single-sample format (no version field,
// Measurement-shaped entries). Load must reject it.
const v1Snapshot = `{"entries":{"root#gemm.chunk=4":{"ValueUs":12.5,"Trial":3}}}`

// FuzzIndexLoad hardens the snapshot loader: arbitrary bytes — corrupt,
// truncated, hostile, v1 or valid v2 saves — must either load cleanly or
// return an error, never panic. A successfully loaded index must survive a
// Save/Load round trip, and the v1 seed must not load.
func FuzzIndexLoad(f *testing.F) {
	// Current v2 multi-sample format.
	f.Add([]byte(`{"version":2,"entries":{"root#gemm.chunk=4":{"count":3,"mean":12.5,"m2":0.3,"trial":7}}}`))
	// Pre-versioning single-sample format: must error.
	f.Add([]byte(v1Snapshot))
	// Truncated mid-entry.
	f.Add([]byte(`{"version":2,"entries":{"a":{"count":`))
	// Future version.
	f.Add([]byte(`{"version":99,"entries":{}}`))
	// Wrong shapes and garbage.
	f.Add([]byte(`{"version":2,"entries":{"a":[1,2,3]}}`))
	f.Add([]byte(`{"version":2,"entries":{"a":{"count":-5,"mean":1e308,"m2":-1,"trial":-9}}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix := NewIndex()
		if err := ix.Load(bytes.NewReader(data)); err != nil {
			return // rejected cleanly: exactly what corrupt input should do
		}
		if string(data) == v1Snapshot {
			t.Fatal("v1 snapshot loaded")
		}
		// Accepted: the index must be fully usable. Round-trip it.
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatalf("loaded index failed to save: %v", err)
		}
		again := NewIndex()
		if err := again.Load(&buf); err != nil {
			t.Fatalf("round trip failed: %v\nsnapshot: %s", err, buf.Bytes())
		}
		if again.Len() != ix.Len() {
			t.Fatalf("round trip changed size: %d -> %d", ix.Len(), again.Len())
		}

		// Live-index discipline: the same snapshot must also load while
		// another goroutine is recording and querying, the way a serving
		// fleet store takes imports mid-run. The Len/size counter must stay
		// consistent with the stored contents afterwards.
		live := NewIndex()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := K("fuzz;", "v", string(rune('a'+i%8)))
				live.Record(k, float64(i))
				live.Has(k)
			}
		}()
		err1 := live.Load(bytes.NewReader(data))
		err2 := live.Load(&buf) // buf may be drained; error is fine
		close(stop)
		<-done
		_, _ = err1, err2 // either outcome is legal; no panic, no race
		if want := len(live.Entries()); live.Len() != want {
			t.Fatalf("size counter %d diverged from %d stored entries", live.Len(), want)
		}
	})
}
