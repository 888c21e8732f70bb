package linmodel

import (
	"math"
	"sort"

	"fedforecaster/internal/linalg"
)

// HuberRegressor fits a linear model under the Huber loss, which is
// quadratic for residuals below Epsilon·σ and linear beyond, making it
// robust to outliers. Fitted by iteratively reweighted least squares
// (IRLS) with L2 regularization Alpha, matching the (epsilon, alpha)
// search space of Table 2.
type HuberRegressor struct {
	Epsilon float64 // transition point in units of residual scale (≥ 1)
	Alpha   float64 // L2 regularization
	MaxIter int
	Tol     float64

	scaler    scaler
	center    centerer
	Coef      []float64
	Intercept float64
	fitted    bool
}

// NewHuber returns a Huber regressor with the given epsilon and alpha.
func NewHuber(epsilon, alpha float64) *HuberRegressor {
	if epsilon < 1 {
		epsilon = 1
	}
	return &HuberRegressor{Epsilon: epsilon, Alpha: alpha, MaxIter: 50, Tol: 1e-6}
}

// Fit trains the model by IRLS.
func (m *HuberRegressor) Fit(x [][]float64, y []float64) error {
	xs, yc, err := m.design(x, y)
	if err != nil {
		return err
	}
	w, _, err := m.irls(xs, yc)
	if err != nil {
		return err
	}
	p := len(w)
	m.Coef = w[: p-1 : p-1]
	m.Intercept = m.center.mean + w[p-1]
	m.fitted = true
	return nil
}

// design fits the scaler and the centerer and returns the standardized
// design with an intercept column appended, and the centred target.
// The bias is re-estimated robustly through that column: with outliers
// the contaminated target mean alone would leave a large systematic
// offset.
func (m *HuberRegressor) design(x [][]float64, y []float64) ([][]float64, []float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, nil, errEmptyTraining
	}
	if err := m.scaler.fit(x); err != nil {
		return nil, nil, err
	}
	yc := m.center.fit(y)
	p := len(m.scaler.mean) + 1
	xs := m.scaler.transformPadded(x, 1)
	for _, row := range xs {
		row[p-1] = 1
	}
	return xs, yc, nil
}

// irls runs the IRLS iterations on the augmented design xs and the
// centred target yc, and returns the coefficients (intercept last) and
// the final row weights.
//
// A row inside the threshold has weight exactly 1, so XᵀWX is the
// unit-weight Gram XᵀX plus (wᵢ − 1)·xᵢxᵢᵀ for the down-weighted rows
// alone, and XᵀWy likewise. The unit-weight upper triangle and Xᵀy are
// built once; each iteration copies them and adds only those
// corrections before mirroring and solving.
func (m *HuberRegressor) irls(xs [][]float64, yc []float64) (w, weights []float64, err error) {
	n, p := len(xs), len(xs[0])
	// One slab for the base and working systems, the factor and the
	// per-row vectors; the coefficients live apart so Coef does not
	// keep the slab alive.
	buf := make([]float64, 3*p*p+2*p+3*n)
	take := func(k int) []float64 {
		v := buf[:k:k]
		buf = buf[k:]
		return v
	}
	base, baseY := take(p*p), take(p)
	xtx, xty := &linalg.Matrix{Rows: p, Cols: p, Data: take(p * p)}, take(p)
	l := &linalg.Matrix{Rows: p, Cols: p, Data: take(p * p)}
	abs, scratch, weights := take(n), take(n), take(n)
	coef := make([]float64, 2*p)
	w, newW := coef[:p:p], coef[p:]

	for i, row := range xs {
		addOuter(base, baseY, row, 1, yc[i])
		weights[i] = 1
	}
	for iter := 0; iter < m.MaxIter; iter++ {
		// Weighted ridge solve: (XᵀWX + αI)w = XᵀWy (bias unregularized).
		copy(xtx.Data, base)
		copy(xty, baseY)
		for i, wi := range weights {
			if wi != 1 {
				addOuter(xtx.Data, xty, xs[i], wi-1, yc[i])
			}
		}
		mirrorUpper(xtx.Data, p)
		for j := 0; j < p; j++ {
			reg := 1e-10
			if j < p-1 {
				reg += float64(m.Alpha * float64(n))
			}
			xtx.Set(j, j, xtx.At(j, j)+reg)
		}
		if err := linalg.SolveSPD(l, newW, xtx, xty); err != nil {
			return nil, nil, err
		}
		var delta float64
		for j := range w {
			delta += math.Abs(newW[j] - w[j])
		}
		w, newW = newW, w
		// Robust scale estimate (MAD) of residuals.
		for i, row := range xs {
			abs[i] = math.Abs(yc[i] - linalg.Dot(row, w))
		}
		sigma := median(abs, scratch) / 0.6745
		if sigma < 1e-9 {
			sigma = 1e-9
		}
		thr := m.Epsilon * sigma
		for i := range weights {
			if abs[i] <= thr {
				weights[i] = 1
			} else {
				weights[i] = thr / abs[i]
			}
		}
		if delta < m.Tol {
			break
		}
	}
	return w, weights, nil
}

// Predict returns predictions for the given rows.
func (m *HuberRegressor) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: Huber.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}

// QuantileRegressor fits a linear model minimizing the pinball loss at
// the given quantile with an L1 penalty Alpha, in the spirit of
// scikit-learn's QuantileRegressor. It is trained by subgradient
// descent with a decaying step size and iterate averaging (robust and
// dependency-free; adequate at the data sizes the engine sees).
type QuantileRegressor struct {
	Quantile float64 // target quantile in (0, 1)
	Alpha    float64 // L1 regularization
	MaxIter  int
	LR       float64

	scaler    scaler
	center    centerer
	Coef      []float64
	Intercept float64
	fitted    bool
}

// NewQuantile returns a quantile regressor. Quantile is clamped into
// (0.01, 0.99).
func NewQuantile(quantile, alpha float64) *QuantileRegressor {
	if quantile < 0.01 {
		quantile = 0.01
	}
	if quantile > 0.99 {
		quantile = 0.99
	}
	return &QuantileRegressor{Quantile: quantile, Alpha: alpha, MaxIter: 400, LR: 0.5}
}

// Fit trains the model by averaged subgradient descent.
func (m *QuantileRegressor) Fit(x [][]float64, y []float64) error {
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
	// Scale the step to the target's spread so learning is unit-free.
	var spread float64
	for _, v := range yc {
		spread += math.Abs(v)
	}
	spread /= nf
	if spread < 1e-9 {
		spread = 1
	}
	for iter := 0; iter < m.MaxIter; iter++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			pred := linalg.Dot(xs[i], w) + b
			r := yc[i] - pred
			// d pinball / d pred: −q when r>0, (1−q) when r<0.
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
		lr := m.LR * spread / (1 + float64(0.1*float64(iter)))
		for j := range w {
			gj := grad[j]/nf + float64(m.Alpha*sign(w[j]))
			w[j] -= float64(lr * gj)
		}
		b -= lr * gb / nf
		// Polyak averaging over the second half of iterations.
		if iter >= m.MaxIter/2 {
			k := float64(iter - m.MaxIter/2 + 1)
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

// Predict returns predictions for the given rows.
func (m *QuantileRegressor) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: Quantile.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// median returns the median of xs — the mean of the two middle values
// when len(xs) is even — with the bits of reading the middle of a
// sort.Float64s-sorted copy, in expected O(n) time. scratch must hold
// len(xs) values; xs itself is not reordered.
func median(xs, scratch []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	a := scratch[:n]
	copy(a, xs)
	for _, v := range a {
		// sort.Float64s puts NaN first, and it orders -0 against +0
		// only by where its partitioning happens to leave them. Both
		// cases keep the sort, so the result bits stay its bits.
		if math.IsNaN(v) || (v == 0 && math.Signbit(v)) {
			sort.Float64s(a)
			if n%2 == 1 {
				return a[n/2]
			}
			return (a[n/2-1] + a[n/2]) / 2
		}
	}
	mid := n / 2
	hi := selectKth(a, mid)
	if n%2 == 1 {
		return hi
	}
	// selectKth leaves a[:mid] ≤ a[mid]; the lower middle value is
	// their maximum.
	lo := a[0]
	for _, v := range a[1:mid] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// selectKth reorders a so that a[k] holds the value sort.Float64s would
// put there, with a[:k] ≤ a[k] ≤ a[k+1:], and returns it. a must hold
// no NaN. Quickselect with a median-of-three pivot and a three-way
// partition, so runs of ties cost one pass; after 64 rounds it sorts
// what is left, bounding the worst case at O(n log n).
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for round := 0; hi-lo > 1; round++ {
		if round == 64 {
			sort.Float64s(a[lo:hi])
			break
		}
		pivot := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// [lo, lt) < pivot, [lt, i) == pivot, [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	return a[k]
}

// median3 returns the middle value of a, b and c.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = max(a, c)
	}
	return b
}
