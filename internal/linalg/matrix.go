// Package linalg provides the small dense linear-algebra kernel used by
// the regression models, the Gaussian-process surrogate, and the neural
// networks in this repository. It is deliberately minimal: row-major
// dense matrices backed by a single []float64, plus the factorizations
// the rest of the system needs (Cholesky, QR least squares).
package linalg

import "fmt"

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

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
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
