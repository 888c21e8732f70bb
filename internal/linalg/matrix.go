// Package linalg provides the small dense linear-algebra kernel used by
// the regression models, the Gaussian-process surrogate, and the neural
// networks in this repository. It is deliberately minimal: row-major
// dense matrices backed by a single []float64, plus the factorizations
// the rest of the system needs (Cholesky, QR least squares).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		//lint:allow panicfree dimension mismatch is a caller bug; gonum-style shape invariant
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			//lint:allow panicfree,iboxing dimension mismatch is a caller bug; gonum-style shape invariant, boxed only on the way to the panic
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		//lint:allow panicfree dimension mismatch is a caller bug; gonum-style shape invariant
		panic(fmt.Sprintf("linalg: mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k, mv := range mi {
			if mv == 0 {
				continue
			}
			bk := b.Row(k)
			for j, bv := range bk {
				oi[j] += float64(mv * bv)
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		//lint:allow panicfree dimension mismatch is a caller bug; gonum-style shape invariant
		panic(fmt.Sprintf("linalg: mulvec dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// AddScaledIdentity adds v to every diagonal element in place and
// returns the receiver for chaining.
func (m *Matrix) AddScaledIdentity(v float64) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		//lint:allow panicfree dimension mismatch is a caller bug; gonum-style shape invariant
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Scale multiplies every element of x by a in place.
func Scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		//lint:allow panicfree dimension mismatch is a caller bug; gonum-style shape invariant
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(a * v)
	}
}
