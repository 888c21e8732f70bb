package linmodel

import (
	"math"
	"sort"

	"fedforecaster/internal/linalg"
)

// IRLS limits of HuberRegressor: at most huberMaxIter iterations, and
// it stops once the coefficients move by less than huberTol in L1.
const (
	huberMaxIter = 50
	huberTol     = 1e-6
)

// HuberRegressor fits a linear model under the Huber loss, which is
// quadratic for residuals below Epsilon·σ and linear beyond, making it
// robust to outliers. Fitted by iteratively reweighted least squares
// (IRLS) with L2 regularization Alpha, matching the (epsilon, alpha)
// search space of Table 2.
type HuberRegressor struct {
	Epsilon float64 // transition point in units of residual scale (≥ 1)
	Alpha   float64 // L2 regularization

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
	return &HuberRegressor{Epsilon: epsilon, Alpha: alpha}
}

// Fit trains the model by IRLS.
func (m *HuberRegressor) Fit(x [][]float64, y []float64) error {
	return m.FitDesign(NewDesign(x, y))
}

// FitDesign trains the model by IRLS on a shared Design's state. The
// design carries an intercept column of ones, through which the bias is
// re-estimated robustly: with outliers the contaminated target mean
// alone would leave a large systematic offset.
func (m *HuberRegressor) FitDesign(d *Design) error {
	st, err := d.state()
	if err != nil {
		return err
	}
	m.scaler, m.center = st.cd.sc, st.cd.ct
	w, _, err := m.irls(st)
	if err != nil {
		return err
	}
	p := len(w)
	m.Coef = w[: p-1 : p-1]
	m.Intercept = m.center.mean + w[p-1]
	m.fitted = true
	return nil
}

// irls runs the IRLS iterations on the design's augmented rows xs and
// centred target yc, and returns the coefficients (intercept last) and
// the final row weights.
//
// A row inside the threshold has weight exactly 1, so XᵀWX is the
// unit-weight Gram XᵀX plus (wᵢ − 1)·xᵢxᵢᵀ for the down-weighted rows
// alone, and XᵀWy likewise. The design holds the unit-weight upper
// triangle and Xᵀy; each iteration copies them and adds only those
// corrections before mirroring and solving. The corrections go four
// rows at a time through addOuterRows, and the residual pass through
// dotRows: every sum keeps the one-row-at-a-time order, so the bits do
// not depend on the blocking (DESIGN.md "Row-blocked linear kernels").
func (m *HuberRegressor) irls(st *designState) (w, weights []float64, err error) {
	xs, yc := st.xs, st.yc
	n, p := len(xs), len(xs[0])
	// One slab for the working system, the factor and the per-row
	// vectors; the coefficients live apart so Coef does not keep the
	// slab alive.
	buf := make([]float64, 2*p*p+p+3*n)
	take := func(k int) []float64 {
		v := buf[:k:k]
		buf = buf[k:]
		return v
	}
	xtx, xty := &linalg.Matrix{Rows: p, Cols: p, Data: take(p * p)}, take(p)
	l := &linalg.Matrix{Rows: p, Cols: p, Data: take(p * p)}
	abs, scratch, weights := take(n), take(n), take(n)
	coef := make([]float64, 2*p)
	w, newW := coef[:p:p], coef[p:]

	for i := range weights {
		weights[i] = 1
	}
	for iter := 0; iter < huberMaxIter; iter++ {
		// Weighted ridge solve: (XᵀWX + αI)w = XᵀWy (bias unregularized).
		copy(xtx.Data, st.base)
		copy(xty, st.baseY)
		addOuterRows(xtx.Data, xty, xs, yc, weights)
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
		dotRows(abs, xs, w)
		for i, v := range abs {
			abs[i] = math.Abs(yc[i] - v)
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
		if delta < huberTol {
			break
		}
	}
	return w, weights, nil
}

// addOuterRows adds (wᵢ − 1)·xᵢxᵢᵀ into the upper triangle of g and
// (wᵢ − 1)·yᵢ·xᵢ into xty for every row i whose weight wᵢ is not 1, in
// row order: the rows are gathered four at a time for addOuter4, and
// the last few go one by one through addOuter.
func addOuterRows(g, xty []float64, xs [][]float64, yc, weights []float64) {
	var blk [4]int
	nb := 0
	for i, wi := range weights {
		//lint:allow floateq exact skip of the rows that add nothing: a row inside the threshold has weight exactly 1
		if wi == 1 {
			continue
		}
		blk[nb] = i
		if nb++; nb == 4 {
			addOuter4(g, xty,
				[4][]float64{xs[blk[0]], xs[blk[1]], xs[blk[2]], xs[blk[3]]},
				[4]float64{weights[blk[0]] - 1, weights[blk[1]] - 1, weights[blk[2]] - 1, weights[blk[3]] - 1},
				[4]float64{yc[blk[0]], yc[blk[1]], yc[blk[2]], yc[blk[3]]})
			nb = 0
		}
	}
	for _, i := range blk[:nb] {
		addOuter(g, xty, xs[i], weights[i]-1, yc[i])
	}
}

// Predict returns predictions for the given rows.
func (m *HuberRegressor) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: Huber.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}

// Subgradient schedule of QuantileRegressor: quantileMaxIter
// iterations, the second half of them averaged, with step
// quantileLR·spread/(1 + 0.1·iter), where spread is the mean absolute
// centred target.
const (
	quantileMaxIter = 400
	quantileLR      = 0.5
)

// QuantileRegressor fits a linear model minimizing the pinball loss at
// the given quantile with an L1 penalty Alpha, in the spirit of
// scikit-learn's QuantileRegressor. It is trained by subgradient
// descent on the unsmoothed pinball loss, with a decaying step size
// and iterate averaging (robust and dependency-free; adequate at the
// data sizes the engine sees).
type QuantileRegressor struct {
	Quantile float64 // target quantile in (0, 1)
	Alpha    float64 // L1 regularization

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
	return &QuantileRegressor{Quantile: quantile, Alpha: alpha}
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

	// w and grad share a slab; avgW becomes Coef, so it lives apart.
	buf := make([]float64, 2*p)
	w, grad := buf[:p:p], buf[p:]
	b := 0.0
	avgW := make([]float64, p)
	avgB := 0.0
	// Scale the step to the target's spread so learning is unit-free.
	var spread float64
	for _, v := range yc {
		spread += math.Abs(v)
	}
	spread /= nf
	if spread < 1e-9 {
		spread = 1
	}
	for iter := 0; iter < quantileMaxIter; iter++ {
		gb := pinballGrad(grad, xs, yc, w, b, m.Quantile)
		lr := quantileLR * spread / (1 + float64(0.1*float64(iter)))
		for j := range w {
			gj := grad[j]/nf + float64(m.Alpha*sign(w[j]))
			w[j] -= float64(lr * gj)
		}
		b -= lr * gb / nf
		// Polyak averaging over the second half of iterations.
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

// Predict returns predictions for the given rows.
func (m *QuantileRegressor) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: Quantile.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}

// pinballGrad sets grad to Σᵢ gᵢ·xᵢ over the rows xs and returns Σᵢ gᵢ,
// where gᵢ is the pinball loss's subgradient in the prediction
// xᵢ·w + b at quantile q: −q when the residual yᵢ − pred is positive,
// 1 − q when it is negative and 0 when it is 0. w and b do not change
// within the pass, so the rows go four at a time: four predictions
// with one accumulator each, then one pass over grad that adds the
// four rows' terms in row order. Every sum has the bits of the
// one-row-at-a-time loop.
func pinballGrad(grad []float64, xs [][]float64, yc, w []float64, b, q float64) (gb float64) {
	slope := func(r float64) float64 {
		switch {
		case r > 0:
			return -q
		case r < 0:
			return 1 - q
		}
		return 0
	}
	p := len(w)
	grad = grad[:p]
	clear(grad)
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		x0, x1, x2, x3 := xs[i][:p], xs[i+1][:p], xs[i+2][:p], xs[i+3][:p]
		s0, s1, s2, s3 := dot4(x0, x1, x2, x3, w)
		g0, g1 := slope(yc[i]-(s0+b)), slope(yc[i+1]-(s1+b))
		g2, g3 := slope(yc[i+2]-(s2+b)), slope(yc[i+3]-(s3+b))
		gb += g0
		gb += g1
		gb += g2
		gb += g3
		for j := range grad {
			v := grad[j]
			v += float64(g0 * x0[j])
			v += float64(g1 * x1[j])
			v += float64(g2 * x2[j])
			v += float64(g3 * x3[j])
			grad[j] = v
		}
	}
	for ; i < len(xs); i++ {
		row := xs[i][:p]
		g := slope(yc[i] - (linalg.Dot(row, w) + b))
		gb += g
		for j, v := range row {
			grad[j] += float64(g * v)
		}
	}
	return gb
}

// dot4 returns the dot products of x0…x3 with w, each summed over
// j = 0…len(w)−1 with one accumulator, as linalg.Dot sums: four
// independent chains in flight where one row's dot product is a single
// dependent chain of adds. Each xk must be at least len(w) long.
func dot4(x0, x1, x2, x3, w []float64) (s0, s1, s2, s3 float64) {
	x0, x1, x2, x3 = x0[:len(w)], x1[:len(w)], x2[:len(w)], x3[:len(w)]
	for j, wj := range w {
		s0 += float64(x0[j] * wj)
		s1 += float64(x1[j] * wj)
		s2 += float64(x2[j] * wj)
		s3 += float64(x3[j] * wj)
	}
	return s0, s1, s2, s3
}

// dotRows sets dst[i] to linalg.Dot(xs[i], w), with the same bits,
// four rows at a time through dot4.
func dotRows(dst []float64, xs [][]float64, w []float64) {
	dst = dst[:len(xs)]
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(xs[i], xs[i+1], xs[i+2], xs[i+3], w)
	}
	for ; i < len(xs); i++ {
		dst[i] = linalg.Dot(xs[i], w)
	}
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
