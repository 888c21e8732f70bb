package tsa

import (
	"errors"
	"math"

	"fedforecaster/internal/linalg"
)

// ADFResult holds the outcome of an Augmented Dickey-Fuller test.
type ADFResult struct {
	Statistic  float64 // the tau statistic (t-ratio on the level coefficient)
	PValue     float64 // approximate p-value (interpolated MacKinnon surface)
	Lags       int     // number of lagged difference terms included
	NObs       int     // effective observations used in the regression
	Stationary bool    // true when the unit-root null is rejected at 5%
}

// MacKinnon (2010) asymptotic critical values for the constant-only
// ("c") ADF regression at 1%, 5%, and 10%, with 1/T and 1/T² finite
// sample response-surface corrections.
var adfCriticalSurface = [3][3]float64{
	{-3.43035, -6.5393, -16.786}, // 1%
	{-2.86154, -2.8903, -4.234},  // 5%
	{-2.56677, -1.5384, -2.809},  // 10%
}

var errSeriesTooShort = errors.New("tsa: series too short for ADF test")

// ADF runs the Augmented Dickey-Fuller unit-root test with a constant
// term, Δy_t = α + γ·y_{t−1} + Σ δ_i·Δy_{t−i} + ε_t. The number of
// lagged differences follows Schwert's rule ⌊12·(n/100)^{1/4}⌋ capped
// so the regression stays well-posed; pass lags < 0 for the automatic
// choice or an explicit non-negative value to fix it. The null
// hypothesis is that the series has a unit root (is non-stationary).
func ADF(xs []float64, lags int) (ADFResult, error) {
	x, y, lags, err := adfRegression(xs, lags)
	if err != nil {
		return ADFResult{}, err
	}
	rows := x.Rows
	beta, se, err := olsWithSE(x, y, 1)
	if err != nil {
		return ADFResult{}, err
	}
	if se <= 0 || math.IsNaN(se) {
		// Degenerate regression (e.g. constant series): treat as
		// maximally stationary — there is no unit root to find.
		return ADFResult{Statistic: math.Inf(-1), PValue: 0, Lags: lags, NObs: rows, Stationary: true}, nil
	}
	tau := beta[1] / se
	nEff := float64(rows)
	crit := func(level int) float64 {
		c := adfCriticalSurface[level]
		return c[0] + c[1]/nEff + c[2]/(nEff*nEff)
	}
	p := adfPValue(tau, crit(0), crit(1), crit(2))
	return ADFResult{
		Statistic:  tau,
		PValue:     p,
		Lags:       lags,
		NObs:       rows,
		Stationary: tau < crit(1),
	}, nil
}

// adfRegression builds ADF's design matrix and response for the
// requested lag count (< 0 = Schwert's rule) and returns the lag count
// it used.
func adfRegression(xs []float64, lags int) (x *linalg.Matrix, y []float64, used int, err error) {
	n := len(xs)
	if n < 12 {
		return nil, nil, 0, errSeriesTooShort
	}
	if lags < 0 {
		lags = int(math.Floor(12 * math.Pow(float64(n)/100, 0.25)))
	}
	maxLags := (n - 4) / 2
	if lags > maxLags {
		lags = maxLags
	}
	if lags < 0 {
		lags = 0
	}

	dy := Difference(xs, 1)
	// Rows: t = lags .. len(dy)-1 over the differenced series.
	rows := len(dy) - lags
	cols := 2 + lags // intercept, y_{t-1}, lagged differences
	if rows <= cols {
		return nil, nil, 0, errSeriesTooShort
	}
	x = linalg.NewMatrix(rows, cols)
	y = make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := i + lags // index into dy
		r := x.Row(i)
		r[0] = 1
		r[1] = xs[t] // y_{t-1} relative to dy[t] = y_{t+1}-y_t... see note below
		for j := 1; j <= lags; j++ {
			r[1+j] = dy[t-j]
		}
		y[i] = dy[t]
	}
	// Note: dy[t] = xs[t+1] − xs[t], so the level regressor is xs[t].
	return x, y, lags, nil
}

// adfPValue interpolates an approximate p-value from the tau statistic
// using the 1%/5%/10% critical anchors in log-p space, with clamped
// exponential extrapolation in the tails. This preserves the decisions
// the engine makes (stationary at 5%/10%) and gives a smooth, monotone
// p-value for diagnostics.
func adfPValue(tau, c1, c5, c10 float64) float64 {
	type anchor struct{ tau, logp float64 }
	anchors := []anchor{
		{c1, math.Log(0.01)},
		{c5, math.Log(0.05)},
		{c10, math.Log(0.10)},
	}
	switch {
	case tau <= anchors[0].tau:
		// Deep rejection region: extrapolate using the 1%-5% slope.
		slope := (anchors[1].logp - anchors[0].logp) / (anchors[1].tau - anchors[0].tau)
		lp := anchors[0].logp + float64(slope*(tau-anchors[0].tau))
		p := math.Exp(lp)
		if p < 1e-6 {
			p = 1e-6
		}
		return p
	case tau >= anchors[2].tau:
		// Non-rejection region: map [c10, c10+4] → [0.10, 0.99].
		frac := (tau - anchors[2].tau) / 4
		if frac > 1 {
			frac = 1
		}
		return 0.10 + float64(frac*0.89)
	default:
		for i := 0; i < 2; i++ {
			a, b := anchors[i], anchors[i+1]
			if tau >= a.tau && tau <= b.tau {
				frac := (tau - a.tau) / (b.tau - a.tau)
				return math.Exp(a.logp + float64(frac*(b.logp-a.logp)))
			}
		}
	}
	return 0.5
}

// olsWithSE fits ordinary least squares and returns the coefficients
// and the standard error of coefficient c, the square root of entry
// (c, c) of σ²·(XᵀX)⁻¹, read off one solve against the unit vector e_c.
func olsWithSE(x *linalg.Matrix, y []float64, c int) (beta []float64, se float64, err error) {
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
			return nil, 0, cerr
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
	e := make([]float64, p)
	e[c] = 1
	col := linalg.CholeskySolve(l, e)
	return beta, math.Sqrt(sigma2 * col[c]), nil
}

// IsStationary is a convenience wrapper returning the 5%-level ADF
// decision with automatic lag selection; short or degenerate series
// are conservatively reported as non-stationary.
func IsStationary(xs []float64) bool {
	res, err := ADF(xs, -1)
	if err != nil {
		return false
	}
	return res.Stationary
}
