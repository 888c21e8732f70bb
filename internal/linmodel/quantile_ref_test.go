package linmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedforecaster/internal/linalg"
)

// fitRef is the subgradient loop that QuantileRegressor.Fit ran before
// its row-blocked kernel, unchanged: each row's prediction is one
// linalg.Dot, and its g·xᵢ goes into grad before the next row is read.
// It is the oracle Fit is checked against bit for bit.
func (m *QuantileRegressor) fitRef(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	if err := m.scaler.fit(x); err != nil {
		return err
	}
	xs := m.scaler.transform(x)
	yc := m.center.fit(y)
	n, p := len(xs), len(xs[0])
	nf := float64(n)

	w := make([]float64, p)
	b := 0.0
	avgW := make([]float64, p)
	avgB := 0.0
	grad := make([]float64, p)
	q := m.Quantile
	var spread float64
	for _, v := range yc {
		spread += math.Abs(v)
	}
	spread /= nf
	if spread < 1e-9 {
		spread = 1
	}
	for iter := 0; iter < quantileMaxIter; iter++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			pred := linalg.Dot(xs[i], w) + b
			r := yc[i] - pred
			var g float64
			if r > 0 {
				g = -q
			} else if r < 0 {
				g = 1 - q
			}
			for j, v := range xs[i] {
				grad[j] += float64(g * v)
			}
			gb += g
		}
		lr := quantileLR * spread / (1 + float64(0.1*float64(iter)))
		for j := range w {
			gj := grad[j]/nf + float64(m.Alpha*sign(w[j]))
			w[j] -= float64(lr * gj)
		}
		b -= lr * gb / nf
		if iter >= quantileMaxIter/2 {
			k := float64(iter - quantileMaxIter/2 + 1)
			for j := range avgW {
				avgW[j] += (w[j] - avgW[j]) / k
			}
			avgB += (b - avgB) / k
		}
	}
	m.Coef = avgW
	m.Intercept = avgB + m.center.mean
	m.fitted = true
	return nil
}

// TestQuantileMatchesReference checks Fit against fitRef bit for bit
// over random designs: n from 1 to 120 (every residue mod 4, and n < 4),
// p from 1 to 20, with constant columns and tied targets, at quantiles
// across (0, 1) and α from none to strong.
func TestQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	quantiles := []float64{0.01, 0.1, 0.5, 0.73, 0.9, 0.99}
	alphas := []float64{0, 1e-4, 0.01, 1}
	for trial := 0; trial < 80; trial++ {
		n, p := 1+rng.Intn(120), 1+rng.Intn(20)
		if trial < 8 {
			n = 1 + trial%4 // every n < 4, and n = 4
		}
		x, y := randomDesign(rng, n, p, trial%3 == 0)
		switch {
		case trial%7 == 0:
			// A constant target centres to exact zeros, so every
			// residual of the first iteration is 0 and takes g = 0.
			for i := range y {
				y[i] = 2
			}
		case trial%5 == 0:
			// Ties: a quarter of the targets repeat one value.
			for i := 0; i < n; i += 4 {
				y[i] = y[0]
			}
		}
		q := quantiles[trial%len(quantiles)]
		alpha := alphas[(trial/len(quantiles))%len(alphas)]
		name := fmt.Sprintf("n=%d/p=%d/q=%g/alpha=%g", n, p, q, alpha)
		got, want := NewQuantile(q, alpha), NewQuantile(q, alpha)
		if err := got.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := want.fitRef(x, y); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if g, w := fitDigest(got.Coef, got.Intercept), fitDigest(want.Coef, want.Intercept); g != w {
			t.Errorf("%s: fit digest %s, reference %s", name, g, w)
		}
	}
}
