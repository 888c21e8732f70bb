package linalg

import "fmt"

// Test-only matrix helpers: the SPD and least-squares tests build
// their systems and check their factors with them. Production code
// never needs a general product or transpose, or a matrix built from
// rows.

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
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
