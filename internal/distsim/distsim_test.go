package distsim

import "testing"

func TestRingAllReduceFormula(t *testing.T) {
	ic := Interconnect{Name: "t", BytesPerUs: 1000, LatencyUs: 2}
	if got := ic.RingAllReduceUs(1<<20, 1); got != 0 {
		t.Fatalf("single worker should not communicate: %v", got)
	}
	// 4 workers: 6 steps, each moving bytes/4.
	bytes := int64(4000)
	want := 6.0 * (1000.0/1000.0 + 2)
	if got := ic.RingAllReduceUs(bytes, 4); got != want {
		t.Fatalf("RingAllReduce = %v, want %v", got, want)
	}
	// Bandwidth-bound regime: time grows sublinearly with workers (the
	// 2(n-1)/n factor approaches 2).
	big := int64(1 << 26)
	t2 := ic.RingAllReduceUs(big, 2)
	t8 := ic.RingAllReduceUs(big, 8)
	if t8 > 2*t2 {
		t.Fatalf("ring scaling broken: n=2 %v, n=8 %v", t2, t8)
	}
}

func TestFabrics(t *testing.T) {
	if NVLink().BytesPerUs <= PCIe().BytesPerUs {
		t.Fatal("NVLink should be faster than PCIe")
	}
	bytes := int64(1 << 24)
	if NVLink().RingAllReduceUs(bytes, 4) >= PCIe().RingAllReduceUs(bytes, 4) {
		t.Fatal("NVLink all-reduce should beat PCIe")
	}
	if _, ok := FabricByName("pcie3"); !ok {
		t.Fatal("pcie3 not found")
	}
	if _, ok := FabricByName("token-ring"); ok {
		t.Fatal("bogus fabric found")
	}
}

func TestSchedules(t *testing.T) {
	scheds := Schedules(16 << 20)
	if len(scheds) < 4 {
		t.Fatalf("schedule space too small: %d", len(scheds))
	}
	seenAllMain := false
	for _, s := range scheds {
		if s == BulkSync() {
			seenAllMain = true
		}
	}
	if !seenAllMain {
		t.Fatal("bulk-sync schedule not in the sweep space")
	}
}
