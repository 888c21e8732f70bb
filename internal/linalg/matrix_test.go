package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set/At round trip failed")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	tr := m.T()
	if tr.Rows != 2 || tr.Cols != 3 {
		t.Fatalf("transpose dims = %dx%d, want 2x3", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := a.MulVec([]float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("MulVec = %v, want [-2 -2]", y)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot on mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestCholeskySolve(t *testing.T) {
	// A = Bᵀ·B + I is SPD for any B.
	rng := rand.New(rand.NewSource(1))
	n := 8
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.T().Mul(b).AddScaledIdentity(1)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	rhs := a.MulVec(xTrue)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	x := CholeskySolve(l, rhs)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("solution mismatch at %d: got %v want %v", i, x[i], xTrue[i])
		}
	}
	// ForwardSolve followed by back substitution is CholeskySolve, bit
	// for bit.
	y := make([]float64, n)
	ForwardSolve(l, y, rhs)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * y[k])
		}
		y[i] = s / l.At(i, i)
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(x[i]) {
			t.Fatalf("ForwardSolve + back substitution at %d: %v, CholeskySolve %v", i, y[i], x[i])
		}
	}
	// L·Lᵀ must reconstruct A.
	rec := l.Mul(l.T())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !almostEq(rec.At(i, j), a.At(i, j), 1e-8) {
				t.Fatalf("reconstruction mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestSolveSPDReusesStorage checks that SolveSPD into caller-owned
// storage gives CholeskySolve's bits whatever l held before, and that
// a solve that factors on the first attempt allocates nothing.
func TestSolveSPDReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 6
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.T().Mul(b).AddScaledIdentity(0.5)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	ref, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := CholeskySolve(ref, rhs)
	l, x := NewMatrix(n, n), make([]float64, n)
	for i := range l.Data {
		l.Data[i] = math.NaN()
	}
	if err := SolveSPD(l, x, a, rhs); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = SolveSPD(l, x, a, rhs) }); allocs != 0 {
		t.Errorf("SolveSPD allocated %v times per solve, want 0", allocs)
	}
	if err := SolveSPD(l, x[:n-1], a, rhs); err == nil {
		t.Error("SolveSPD accepted a short x")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, p := 200, 4
	a := NewMatrix(n, p)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	coef := []float64{1.5, -2, 0.5, 3}
	y := a.MulVec(coef)
	got, err := LeastSquares(a, y, 0)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	for i := range coef {
		if !almostEq(got[i], coef[i], 1e-8) {
			t.Fatalf("coef = %v, want %v", got, coef)
		}
	}
}

func TestLeastSquaresRidgeShrinks(t *testing.T) {
	a := FromRows([][]float64{{1}, {1}, {1}})
	y := []float64{2, 2, 2}
	noRidge, _ := LeastSquares(a, y, 0)
	ridge, _ := LeastSquares(a, y, 10)
	if !(math.Abs(ridge[0]) < math.Abs(noRidge[0])) {
		t.Fatalf("ridge solution %v not shrunk vs %v", ridge, noRidge)
	}
}

// Property: for any vector x, Dot(x, x) is the sum of squares (within
// fp error).
func TestDotNormProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// Avoid overflow by clamping inputs.
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				return true
			}
			xs[i] = math.Mod(xs[i], 1e3)
		}
		d := Dot(xs, xs)
		var ss float64
		for _, v := range xs {
			ss += v * v
		}
		return almostEq(d, ss, 1e-6*(1+d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: (Aᵀ)ᵀ == A for random matrices.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		tt := m.T().T()
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				t.Fatalf("transpose involution failed (trial %d)", trial)
			}
		}
	}
}

func TestSolveSPDJitterRecovery(t *testing.T) {
	// A barely-PSD matrix: rank deficient, SolveSPD should succeed via jitter.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	x := make([]float64, 2)
	if err := SolveSPD(NewMatrix(2, 2), x, a, []float64{2, 2}); err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	// x should satisfy the system approximately: x0 + x1 ≈ 2.
	if !almostEq(x[0]+x[1], 2, 1e-3) {
		t.Fatalf("x = %v does not satisfy system", x)
	}
}
