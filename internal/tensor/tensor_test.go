package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestShapeBasics(t *testing.T) {
	s := Shape{4, 8}
	if s.NumElements() != 32 {
		t.Fatalf("NumElements = %d, want 32", s.NumElements())
	}
	if s.Rows() != 4 || s.Cols() != 8 {
		t.Fatalf("Rows/Cols = %d/%d, want 4/8", s.Rows(), s.Cols())
	}
	if !s.Equal(Shape{4, 8}) || s.Equal(Shape{8, 4}) || s.Equal(Shape{4}) {
		t.Fatal("Shape.Equal misbehaves")
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 4 {
		t.Fatal("Clone aliases original")
	}
	if (Shape{}).NumElements() != 1 {
		t.Fatal("scalar shape should have one element")
	}
	if (Shape{5}).Rows() != 1 || (Shape{5}).Cols() != 5 {
		t.Fatal("vector Rows/Cols")
	}
}

func TestNewAndFromSlice(t *testing.T) {
	a := New(2, 3)
	if a.NumElements() != 6 {
		t.Fatalf("NumElements = %d", a.NumElements())
	}
	b := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if b.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", b.At(1, 0))
	}
	b.Set(1, 0, 7)
	if b.Data()[2] != 7 {
		t.Fatal("Set did not write through")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong count should panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshape(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Reshape(3, 2)
	if r.At(2, 1) != 6 {
		t.Fatalf("Reshape At(2,1) = %v", r.At(2, 1))
	}
	r.Set(0, 0, -1)
	if a.At(0, 0) != -1 {
		t.Fatal("Reshape should share data")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], v)
		}
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(seed uint64) bool {
		m := 1 + int(seed%5)
		n := 1 + int((seed>>8)%6)
		a := Randn(rng, 1, m, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		return MaxAbsDiff(MatMul(a, id), a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityWithAddProperty(t *testing.T) {
	// (A+B)·C == A·C + B·C — the algebraic identity behind GEMM fusion
	// ladders; must hold to near machine precision.
	rng := NewRNG(21)
	f := func(seed uint64) bool {
		m := 1 + int(seed%4)
		k := 1 + int((seed>>4)%4)
		n := 1 + int((seed>>8)%4)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, m, k)
		c := Randn(rng, 1, k, n)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcatFusionEquivalenceProperty(t *testing.T) {
	// [A;B]·C == [A·C ; B·C] — horizontal GEMM fusion along the batch
	// dimension is value-preserving.
	rng := NewRNG(5)
	f := func(seed uint64) bool {
		m1 := 1 + int(seed%3)
		m2 := 1 + int((seed>>2)%3)
		k := 1 + int((seed>>4)%5)
		n := 1 + int((seed>>8)%5)
		a := Randn(rng, 1, m1, k)
		b := Randn(rng, 1, m2, k)
		c := Randn(rng, 1, k, n)
		fused := MatMul(ConcatRows(a, b), c)
		split := ConcatRows(MatMul(a, c), MatMul(b, c))
		return MaxAbsDiff(fused, split) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColumnFusionEquivalenceProperty(t *testing.T) {
	// A·[C D] == [A·C  A·D] — fusing along the output dimension.
	rng := NewRNG(13)
	f := func(seed uint64) bool {
		m := 1 + int(seed%3)
		k := 1 + int((seed>>2)%5)
		n1 := 1 + int((seed>>4)%4)
		n2 := 1 + int((seed>>8)%4)
		a := Randn(rng, 1, m, k)
		c := Randn(rng, 1, k, n1)
		d := Randn(rng, 1, k, n2)
		fused := MatMul(a, ConcatCols(c, d))
		split := ConcatCols(MatMul(a, c), MatMul(a, d))
		return MaxAbsDiff(fused, split) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if !at.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("shape %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatal("transpose values wrong")
	}
	if MaxAbsDiff(Transpose(at), a) != 0 {
		t.Fatal("double transpose is not identity")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3, -4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data()[1]; got != 18 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data()[3]; got != 44 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data()[2]; got != 90 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Scale(a, 2).Data()[0]; got != 2 {
		t.Fatalf("Scale = %v", got)
	}
	if got := ReLU(a).Data(); got[1] != 0 || got[2] != 3 {
		t.Fatalf("ReLU = %v", got)
	}
	if got := Sigmoid(New(1, 1)).Data()[0]; got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if got := Tanh(New(1, 1)).Data()[0]; got != 0 {
		t.Fatalf("Tanh(0) = %v", got)
	}
}

func TestAddBias(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	bias := FromSlice([]float64{10, 20}, 1, 2)
	got := AddBias(a, bias)
	want := []float64{11, 22, 13, 24}
	for i := range want {
		if got.Data()[i] != want[i] {
			t.Fatalf("AddBias[%d] = %v, want %v", i, got.Data()[i], want[i])
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(3)
	a := Randn(rng, 5, 4, 7)
	s := Softmax(a)
	for i := 0; i < 4; i++ {
		sum := 0.0
		for j := 0; j < 7; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	rng := NewRNG(11)
	f := func(shift float64) bool {
		if math.IsNaN(shift) || math.Abs(shift) > 50 {
			return true
		}
		a := Randn(rng, 1, 3, 5)
		b := elementwise1(a, func(x float64) float64 { return x + shift })
		return MaxAbsDiff(Softmax(a), Softmax(b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcatAndSlice(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6}, 2, 1)
	cc := ConcatCols(a, b)
	if !cc.Shape().Equal(Shape{2, 3}) || cc.At(1, 2) != 6 {
		t.Fatalf("ConcatCols got %v %v", cc.Shape(), cc.Data())
	}
	back := SliceCols(cc, 0, 2)
	if MaxAbsDiff(back, a) != 0 {
		t.Fatal("SliceCols does not invert ConcatCols")
	}
	cr := ConcatRows(a, FromSlice([]float64{7, 8}, 1, 2))
	if !cr.Shape().Equal(Shape{3, 2}) || cr.At(2, 1) != 8 {
		t.Fatalf("ConcatRows got %v", cr.Data())
	}
	if MaxAbsDiff(SliceRows(cr, 0, 2), a) != 0 {
		t.Fatal("SliceRows does not invert ConcatRows")
	}
}

func TestLookup(t *testing.T) {
	table := FromSlice([]float64{0, 0, 1, 1, 2, 2}, 3, 2)
	ids := FromSlice([]float64{2, 0, 1}, 3, 1)
	got := Lookup(table, ids)
	want := []float64{2, 2, 0, 0, 1, 1}
	for i := range want {
		if got.Data()[i] != want[i] {
			t.Fatalf("Lookup = %v", got.Data())
		}
	}
}

func TestSumAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if Sum(a).Data()[0] != 10 {
		t.Fatalf("Sum = %v", Sum(a).Data()[0])
	}
	sr := SumRows(a)
	if sr.At(0, 0) != 4 || sr.At(0, 1) != 6 {
		t.Fatalf("SumRows = %v", sr.Data())
	}
}

func TestCrossEntropy(t *testing.T) {
	// Uniform logits over n classes have loss ln(n).
	logits := New(2, 4)
	targets := FromSlice([]float64{0, 3}, 2, 1)
	got := CrossEntropy(logits, targets).Data()[0]
	if math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("CrossEntropy = %v, want ln 4", got)
	}
}

func TestCrossEntropyDecreasesWithCorrectLogit(t *testing.T) {
	logits := New(1, 3)
	targets := FromSlice([]float64{1}, 1, 1)
	base := CrossEntropy(logits, targets).Data()[0]
	logits.Set(0, 1, 2)
	better := CrossEntropy(logits, targets).Data()[0]
	if better >= base {
		t.Fatalf("loss did not decrease: %v -> %v", base, better)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	b := FromSlice([]float64{1, 5}, 1, 2)
	if MaxAbsDiff(a, b) != 3 {
		t.Fatalf("MaxAbsDiff = %v", MaxAbsDiff(a, b))
	}
	if !math.IsInf(MaxAbsDiff(a, New(2, 1)), 1) {
		t.Fatal("shape mismatch should be +Inf")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed should be remapped")
	}
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		n := r.Intn(17)
		if n < 0 || n >= 17 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

// TestRNGSkipMatchesStepping checks the jump-ahead against plain
// stepping: from one seed, Skip(n) must land on the state n draws of
// Uint64 reach, at 0, 1, 12 (one Norm), on both sides of every power of
// two up to 2^26, and at about 10^8 (a default-scale model's draws).
func TestRNGSkipMatchesStepping(t *testing.T) {
	counts := []uint64{0, 1}
	top := 26
	if testing.Short() {
		top = 20
	}
	for k := 2; k <= top; k++ {
		counts = append(counts, 1<<k-1, 1<<k, 1<<k+1)
		if k == 3 {
			counts = append(counts, 12)
		}
	}
	if !testing.Short() {
		counts = append(counts, 100_000_007)
	}
	const seed = 0x5eed
	step := NewRNG(seed)
	var stepped uint64
	for _, n := range counts { // ascending
		for ; stepped < n; stepped++ {
			step.Uint64()
		}
		jump := NewRNG(seed)
		jump.Skip(n)
		if *jump != *step {
			t.Fatalf("Skip(%d) reached state %#x, stepping %#x", n, jump.state, step.state)
		}
	}
	// Skips compose: two jumps land where one jump of their sum does.
	a, b := NewRNG(seed), NewRNG(seed)
	a.Skip(12 * 1000)
	a.Skip(12 * 345)
	b.Skip(12 * 1345)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Skip(x) then Skip(y) differs from Skip(x+y)")
	}
}

func TestFill(t *testing.T) {
	a := New(2, 2).Fill(3)
	for _, v := range a.Data() {
		if v != 3 {
			t.Fatal("Fill failed")
		}
	}
}
