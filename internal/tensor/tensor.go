// Package tensor provides the CPU reference tensor math used by the Astra
// reproduction. Astra's optimizations are value-preserving: every schedule
// the custom-wirer explores must compute exactly the same values as the
// naive dispatch order. This package is the oracle for that property — it
// executes graphs on the host, with no performance model attached.
//
// Tensors are dense, row-major, float64. The simulated device (package
// gpusim) tracks timing only; values always flow through this package.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Shape describes the extent of each tensor dimension, outermost first.
type Shape []int

// NumElements returns the total element count of the shape. An empty shape
// denotes a scalar and has one element.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as "[d0 d1 ...]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Rows returns the leading dimension of a matrix-like shape, treating
// scalars and vectors as a single row.
func (s Shape) Rows() int {
	if len(s) < 2 {
		return 1
	}
	return s[0]
}

// Cols returns the trailing dimension, treating scalars as one column.
func (s Shape) Cols() int {
	if len(s) == 0 {
		return 1
	}
	return s[len(s)-1]
}

// Tensor is a dense row-major array of float64 with an explicit shape.
type Tensor struct {
	shape Shape
	data  []float64
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	return &Tensor{shape: s, data: make([]float64, s.NumElements())}
}

// FromSlice wraps data (not copied) in a tensor of the given shape. It
// panics if the element count does not match.
func FromSlice(data []float64, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != len(data) {
		panic(fmt.Sprintf("tensor: %d elements for shape %v", len(data), s))
	}
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice. Callers may read and write elements but
// must not resize.
func (t *Tensor) Data() []float64 { return t.data }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// At returns the element at row i, column j of a matrix-shaped tensor.
func (t *Tensor) At(i, j int) float64 { return t.data[i*t.shape.Cols()+j] }

// Set assigns the element at row i, column j of a matrix-shaped tensor.
func (t *Tensor) Set(i, j int, v float64) { t.data[i*t.shape.Cols()+j] = v }

// Reshape returns a view with a new shape sharing the same data. It panics
// if the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v", t.shape, s))
	}
	return &Tensor{shape: s, data: t.data}
}

// Fill sets every element to v and returns the tensor.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// RNG is a small deterministic PRNG (xorshift64*) used to build reproducible
// test inputs without importing math/rand state into substrate packages.
type RNG struct{ state uint64 }

// NewRNG seeds a deterministic generator. A zero seed is remapped so the
// generator never degenerates.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Reseed resets the generator in place to the given seed (zero remapped as
// in NewRNG) — the allocation-free counterpart of NewRNG for hot loops that
// reseed per mini-batch.
func (r *RNG) Reseed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r.state = seed
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state = xorshift(r.state)
	return r.state * 0x2545f4914f6cdd1d
}

// jumps holds the xorshift state transition raised to the powers 2^0 …
// 2^63, each a 64×64 matrix over GF(2) whose column j is the image of the
// state with only bit j set. The transition is linear over GF(2) (its
// shifts and XORs are), so the state n draws later is the product of the
// matrices for n's set bits applied to the state.
var jumps = sync.OnceValue(func() *[64][64]uint64 {
	m := new([64][64]uint64)
	for j := range m[0] {
		m[0][j] = xorshift(1 << j)
	}
	for k := 1; k < 64; k++ {
		for j := range m[k] {
			m[k][j] = apply(&m[k-1], m[k-1][j])
		}
	}
	return m
})

// xorshift is one step of the generator's state transition.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// apply multiplies the GF(2) matrix m by the bit vector x.
func apply(m *[64]uint64, x uint64) uint64 {
	var y uint64
	for ; x != 0; x &= x - 1 {
		y ^= m[bits.TrailingZeros64(x)]
	}
	return y
}

// Skip advances the generator by n draws without producing them: the
// values drawn afterwards are exactly those drawn after n calls to Uint64.
// It costs at most 64 matrix-vector products over GF(2), whatever n is.
func (r *RNG) Skip(n uint64) {
	m := jumps()
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			r.state = apply(&m[k], r.state)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn on non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormDraws is how many Uint64 draws one Norm consumes.
const NormDraws = 12

// Norm returns an approximately standard-normal value (sum of uniforms).
func (r *RNG) Norm() float64 {
	s := 0.0
	for i := 0; i < NormDraws; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Randn fills a new tensor of the given shape with scaled pseudo-normal
// values drawn from rng.
func Randn(rng *RNG, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.Norm() * scale
	}
	return t
}

// MatMul returns a × b for matrix-shaped tensors [m,k] × [k,n] → [m,n].
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.shape.Rows(), a.shape.Cols()
	k2, n := b.shape.Rows(), b.shape.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// Transpose returns the matrix transpose of a matrix-shaped tensor.
func Transpose(a *Tensor) *Tensor {
	m, n := a.shape.Rows(), a.shape.Cols()
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

func elementwise2(a, b *Tensor, f func(x, y float64) float64) *Tensor {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: elementwise %v vs %v", a.shape, b.shape))
	}
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i], b.data[i])
	}
	return out
}

func elementwise1(a *Tensor, f func(x float64) float64) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i])
	}
	return out
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	return elementwise2(a, b, func(x, y float64) float64 { return x + y })
}

// Sub returns a − b elementwise.
func Sub(a, b *Tensor) *Tensor {
	return elementwise2(a, b, func(x, y float64) float64 { return x - y })
}

// Mul returns a ⊙ b elementwise.
func Mul(a, b *Tensor) *Tensor {
	return elementwise2(a, b, func(x, y float64) float64 { return x * y })
}

// Scale returns s·a.
func Scale(a *Tensor, s float64) *Tensor {
	return elementwise1(a, func(x float64) float64 { return x * s })
}

// Sigmoid returns 1/(1+e^−x) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	return elementwise1(a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Tensor) *Tensor { return elementwise1(a, math.Tanh) }

// ReLU returns max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	return elementwise1(a, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// AddBias adds a [1,n] (or [n]) bias row to every row of a [m,n] matrix.
func AddBias(a, bias *Tensor) *Tensor {
	m, n := a.shape.Rows(), a.shape.Cols()
	if bias.NumElements() != n {
		panic(fmt.Sprintf("tensor: bias %v for %v", bias.shape, a.shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[i*n+j] = a.data[i*n+j] + bias.data[j]
		}
	}
	return out
}

// Softmax returns the row-wise softmax of a matrix-shaped tensor.
func Softmax(a *Tensor) *Tensor {
	m, n := a.shape.Rows(), a.shape.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		orow := out.data[i*n : (i+1)*n]
		for j, v := range row {
			e := math.Exp(v - max)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

// ConcatCols concatenates matrix-shaped tensors with equal row counts along
// the column dimension.
func ConcatCols(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatCols with no parts")
	}
	m := parts[0].shape.Rows()
	total := 0
	for _, p := range parts {
		if p.shape.Rows() != m {
			panic("tensor: ConcatCols row mismatch")
		}
		total += p.shape.Cols()
	}
	out := New(m, total)
	off := 0
	for _, p := range parts {
		n := p.shape.Cols()
		for i := 0; i < m; i++ {
			copy(out.data[i*total+off:i*total+off+n], p.data[i*n:(i+1)*n])
		}
		off += n
	}
	return out
}

// ConcatRows stacks matrix-shaped tensors with equal column counts along the
// row dimension.
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatRows with no parts")
	}
	n := parts[0].shape.Cols()
	total := 0
	for _, p := range parts {
		if p.shape.Cols() != n {
			panic("tensor: ConcatRows col mismatch")
		}
		total += p.shape.Rows()
	}
	out := New(total, n)
	off := 0
	for _, p := range parts {
		copy(out.data[off*n:], p.data)
		off += p.shape.Rows()
	}
	return out
}

// SliceCols returns columns [from, to) of a matrix-shaped tensor as a copy.
func SliceCols(a *Tensor, from, to int) *Tensor {
	m, n := a.shape.Rows(), a.shape.Cols()
	if from < 0 || to > n || from > to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %v", from, to, a.shape))
	}
	w := to - from
	out := New(m, w)
	for i := 0; i < m; i++ {
		copy(out.data[i*w:(i+1)*w], a.data[i*n+from:i*n+to])
	}
	return out
}

// SliceRows returns rows [from, to) of a matrix-shaped tensor as a copy.
func SliceRows(a *Tensor, from, to int) *Tensor {
	m, n := a.shape.Rows(), a.shape.Cols()
	if from < 0 || to > m || from > to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %v", from, to, a.shape))
	}
	out := New(to-from, n)
	copy(out.data, a.data[from*n:to*n])
	return out
}

// Lookup gathers rows of table indexed by ids (a [m,1] tensor of integral
// values), producing [m, cols(table)]. It models an embedding lookup.
func Lookup(table, ids *Tensor) *Tensor {
	rows, n := table.shape.Rows(), table.shape.Cols()
	m := ids.NumElements()
	out := New(m, n)
	for i := 0; i < m; i++ {
		id := int(ids.data[i])
		if id < 0 || id >= rows {
			panic(fmt.Sprintf("tensor: lookup id %d out of %d", id, rows))
		}
		copy(out.data[i*n:(i+1)*n], table.data[id*n:(id+1)*n])
	}
	return out
}

// Sum returns the sum of all elements as a [1,1] tensor.
func Sum(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	out := New(1, 1)
	out.data[0] = s
	return out
}

// SumRows reduces a [m,n] matrix to a [1,n] row of column sums.
func SumRows(a *Tensor) *Tensor {
	m, n := a.shape.Rows(), a.shape.Cols()
	out := New(1, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j] += a.data[i*n+j]
		}
	}
	return out
}

// CrossEntropy computes the mean negative log-likelihood of target rows
// under row-wise softmax of logits. targets holds one class id per row.
// It returns a [1,1] tensor.
func CrossEntropy(logits, targets *Tensor) *Tensor {
	probs := Softmax(logits)
	m, n := probs.shape.Rows(), probs.shape.Cols()
	if targets.NumElements() != m {
		panic(fmt.Sprintf("tensor: %d targets for %d rows", targets.NumElements(), m))
	}
	loss := 0.0
	for i := 0; i < m; i++ {
		c := int(targets.data[i])
		if c < 0 || c >= n {
			panic(fmt.Sprintf("tensor: target class %d out of %d", c, n))
		}
		loss -= math.Log(math.Max(probs.data[i*n+c], 1e-300))
	}
	out := New(1, 1)
	out.data[0] = loss / float64(m)
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference between two
// same-shaped tensors; it is the metric used by value-preservation tests.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.shape.Equal(b.shape) {
		return math.Inf(1)
	}
	max := 0.0
	for i := range a.data {
		d := math.Abs(a.data[i] - b.data[i])
		if d > max {
			max = d
		}
	}
	return max
}
