package tsa

import (
	"fmt"
	"math"
	"testing"

	"fedforecaster/internal/linalg"
)

// olsWithSERef is the reference olsWithSE replaced: it returns every
// coefficient's standard error, from p unit-vector solves against the
// same Cholesky factor.
func olsWithSERef(x *linalg.Matrix, y []float64) (beta, se []float64, err error) {
	p := x.Cols
	xtx := linalg.NewMatrix(p, p)
	xty := make([]float64, p)
	for i := 0; i < x.Rows; i++ {
		ri := x.Row(i)
		for j, vj := range ri {
			xty[j] += float64(vj * y[i])
			row := xtx.Row(j)
			for k := j; k < p; k++ {
				row[k] += float64(vj * ri[k])
			}
		}
	}
	for j := 0; j < p; j++ {
		for k := j + 1; k < p; k++ {
			xtx.Set(k, j, xtx.At(j, k))
		}
	}
	l, cerr := linalg.Cholesky(xtx)
	if cerr != nil {
		l, cerr = linalg.Cholesky(xtx.Clone().AddScaledIdentity(1e-8))
		if cerr != nil {
			return nil, nil, cerr
		}
	}
	beta = linalg.CholeskySolve(l, xty)
	// Residual variance.
	var rss float64
	for i := 0; i < x.Rows; i++ {
		r := y[i] - linalg.Dot(x.Row(i), beta)
		rss += float64(r * r)
	}
	dof := float64(x.Rows - p)
	if dof < 1 {
		dof = 1
	}
	sigma2 := rss / dof
	// Diagonal of (XᵀX)⁻¹ via unit-vector solves.
	se = make([]float64, p)
	e := make([]float64, p)
	for j := 0; j < p; j++ {
		for k := range e {
			e[k] = 0
		}
		e[j] = 1
		col := linalg.CholeskySolve(l, e)
		se[j] = math.Sqrt(sigma2 * col[j])
	}
	return beta, se, nil
}

// TestADFOneSolveMatchesReference: the statistic ADF computes from the
// single e₁ solve has the bits of the one the p-solve reference gives,
// on every series the ADF tests use.
func TestADFOneSolveMatchesReference(t *testing.T) {
	series := map[string][]float64{
		"ar1-7":     ar1(2000, 0.3, 7),
		"ar1-22":    ar1(1000, 0.2, 22),
		"diff-walk": Difference(randomWalk(1500, 8), 1),
		"walk-21":   randomWalk(1000, 21),
	}
	for seed := int64(100); seed < 105; seed++ {
		series[fmt.Sprintf("walk-%d", seed)] = randomWalk(1500, seed)
	}
	for name, xs := range series {
		got, err := ADF(xs, -1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, y, _, err := adfRegression(xs, -1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		beta, se, err := olsWithSERef(x, y)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := beta[1] / se[1]; math.Float64bits(got.Statistic) != math.Float64bits(want) {
			t.Errorf("%s: statistic %v (%016x), reference %v (%016x)", name,
				got.Statistic, math.Float64bits(got.Statistic), want, math.Float64bits(want))
		}
	}
}
