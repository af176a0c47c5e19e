package data

import (
	"testing"
	"testing/quick"
)

func TestSampleLengthsRange(t *testing.T) {
	ls := SampleLengths(5000, 7)
	for _, l := range ls {
		if l < 4 || l > MaxPTBLength {
			t.Fatalf("length %d out of range", l)
		}
	}
}

func TestSampleLengthsDeterministic(t *testing.T) {
	a := SampleLengths(100, 3)
	b := SampleLengths(100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling nondeterministic")
		}
	}
	c := SampleLengths(100, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical samples")
	}
}

func TestBucketsReproducePaperBoundaries(t *testing.T) {
	// §6.5: five equal-frequency buckets on the PTB length distribution
	// give 13, 18, 24, 30 and 83.
	ls := SampleLengths(20000, 42)
	got := Buckets(ls, 5)
	want := []int{13, 18, 24, 30, 83}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Buckets = %v, want %v", got, want)
		}
	}
}

func TestBucketForMapsUp(t *testing.T) {
	buckets := []int{13, 18, 24, 30, 83}
	cases := map[int]int{4: 13, 13: 13, 14: 18, 19: 24, 30: 30, 31: 83, 83: 83}
	for l, want := range cases {
		if got := BucketFor(buckets, l); got != want {
			t.Fatalf("BucketFor(%d) = %d, want %d", l, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized length accepted")
		}
	}()
	BucketFor(buckets, 99)
}

func TestBucketsProperty(t *testing.T) {
	// Boundaries are increasing, the last covers the max, and every
	// sampled length maps to some bucket.
	f := func(seed uint64, kRaw uint8) bool {
		k := 2 + int(kRaw%6)
		ls := SampleLengths(500, seed|1)
		bs := Buckets(ls, k)
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				return false
			}
		}
		maxLen := 0
		for _, l := range ls {
			if l > maxLen {
				maxLen = l
			}
		}
		if bs[len(bs)-1] < maxLen {
			return false
		}
		for _, l := range ls {
			if BucketFor(bs, l) < l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Buckets accepted empty input")
		}
	}()
	Buckets(nil, 5)
}
