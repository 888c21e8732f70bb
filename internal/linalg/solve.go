package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix
// is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

var errDimension = errors.New("linalg: solve dimension mismatch")

// Cholesky computes the lower-triangular factor L of a symmetric
// positive-definite matrix A such that A = L·Lᵀ. Only the lower
// triangle of A is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: cholesky requires a square matrix")
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := cholesky(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// cholesky writes the Cholesky factor of the n×n matrix a into the
// lower triangle of l, the same shape. It reads only a's lower
// triangle and only entries of l it has written itself, so l may hold
// anything on entry; its strict upper triangle is left as it was.
func cholesky(l, a *Matrix) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		var d float64
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d += float64(lj[k] * lj[k])
		}
		d = a.At(j, j) - d
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		lj[j] = math.Sqrt(d)
		inv := 1 / lj[j]
		for i := j + 1; i < n; i++ {
			li := l.Row(i)
			var s float64
			for k := 0; k < j; k++ {
				s += float64(li[k] * lj[k])
			}
			li[j] = (a.At(i, j) - s) * inv
		}
	}
	return nil
}

// CholeskySolve solves A·x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	x := make([]float64, l.Rows)
	cholSolve(l, x, b)
	return x
}

// ForwardSolve solves L·x = b for lower-triangular L into x, which
// must have L.Rows entries.
func ForwardSolve(l *Matrix, x, b []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		li := l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(li[k] * x[k])
		}
		x[i] = s / li[i]
	}
}

// cholSolve solves L·Lᵀ·x = b into x. Forward substitution leaves
// y = L⁻¹·b in x; back substitution then overwrites it from the last
// entry up, since entry i reads only the entries after it, which are
// already final.
func cholSolve(l *Matrix, x, b []float64) {
	n := l.Rows
	ForwardSolve(l, x, b)
	// Back substitution: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * x[k])
		}
		x[i] = s / l.At(i, i)
	}
}

// SolveSPD solves A·x = b for symmetric positive-definite A into x,
// factoring A into l, which must have A's shape. A solve whose first
// factorization succeeds allocates nothing. On failure it retries on a
// copy of A with a tiny jitter on the diagonal, growing a hundredfold
// each time, before giving up. A and b are not modified; l's previous
// contents are ignored.
func SolveSPD(l *Matrix, x []float64, a *Matrix, b []float64) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n || len(x) != n || len(b) != n {
		return errDimension
	}
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		m := a
		if jitter > 0 {
			m = a.Clone().AddScaledIdentity(jitter)
		}
		if cholesky(l, m) == nil {
			cholSolve(l, x, b)
			return nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
	}
	return ErrNotPositiveDefinite
}

// LeastSquares solves min ‖A·x − b‖₂ via ridge-stabilized normal
// equations AᵀA·x = Aᵀb. ridge may be zero; a tiny jitter is added
// automatically if the normal matrix is not positive definite.
func LeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, errors.New("linalg: least squares dimension mismatch")
	}
	p := a.Cols
	ata := NewMatrix(p, p)
	atb := make([]float64, p)
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		for j, vj := range ri {
			atb[j] += float64(vj * b[i])
			row := ata.Row(j)
			for k := j; k < p; k++ {
				row[k] += float64(vj * ri[k])
			}
		}
	}
	// Mirror the upper triangle into the lower.
	for j := 0; j < p; j++ {
		for k := j + 1; k < p; k++ {
			ata.Set(k, j, ata.At(j, k))
		}
	}
	if ridge > 0 {
		ata.AddScaledIdentity(ridge)
	}
	x := make([]float64, p)
	if err := SolveSPD(NewMatrix(p, p), x, ata, atb); err != nil {
		return nil, err
	}
	return x, nil
}
