package linmodel

import (
	"fmt"
	"math"
	"math/rand"
)

// Coordinate-descent defaults shared by Lasso, ElasticNet and the
// per-fold fits of ElasticNetCV.
const (
	defaultMaxIter = 300
	defaultTol     = 1e-5
)

// SelectionRule chooses the coordinate-descent update order, matching
// scikit-learn's `selection` hyper-parameter for Lasso/ElasticNet.
type SelectionRule string

// Supported selection rules.
const (
	SelectionCyclic SelectionRule = "cyclic"
	SelectionRandom SelectionRule = "random"
)

// Lasso is L1-regularized least squares fitted by coordinate descent
// with soft-thresholding. The objective matches scikit-learn:
//
//	(1/2n)·‖y − Xw‖² + α·‖w‖₁
type Lasso struct {
	Alpha     float64
	Selection SelectionRule
	MaxIter   int
	Tol       float64
	Seed      int64

	scaler    scaler
	center    centerer
	Coef      []float64
	Intercept float64
	fitted    bool
}

// NewLasso returns a Lasso with the given regularization strength.
func NewLasso(alpha float64, sel SelectionRule) *Lasso {
	return &Lasso{Alpha: alpha, Selection: sel, MaxIter: defaultMaxIter, Tol: defaultTol}
}

// Fit trains the model.
func (m *Lasso) Fit(x [][]float64, y []float64) error {
	coef, icpt, err := coordinateDescent(x, y, m.Alpha, 1.0, m.Selection, m.MaxIter, m.Tol, m.Seed, &m.scaler, &m.center)
	if err != nil {
		return err
	}
	m.Coef, m.Intercept, m.fitted = coef, icpt, true
	return nil
}

// Predict returns predictions for the given rows.
func (m *Lasso) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: Lasso.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}

// ElasticNet mixes L1 and L2 penalties:
//
//	(1/2n)·‖y − Xw‖² + α·ρ·‖w‖₁ + α·(1−ρ)/2·‖w‖²
//
// where ρ is L1Ratio. L1Ratio is clamped into [0, 1]: the paper's
// Table 2 lists l1_ratio ∈ [0.3:10], and values above 1 degenerate to
// pure Lasso behaviour, so they clamp to 1.
type ElasticNet struct {
	Alpha     float64
	L1Ratio   float64
	Selection SelectionRule
	MaxIter   int
	Tol       float64
	Seed      int64

	scaler    scaler
	center    centerer
	Coef      []float64
	Intercept float64
	fitted    bool
}

// NewElasticNet returns an elastic net with the given penalties.
func NewElasticNet(alpha, l1Ratio float64, sel SelectionRule) *ElasticNet {
	return &ElasticNet{Alpha: alpha, L1Ratio: l1Ratio, Selection: sel, MaxIter: defaultMaxIter, Tol: defaultTol}
}

// Fit trains the model.
func (m *ElasticNet) Fit(x [][]float64, y []float64) error {
	coef, icpt, err := coordinateDescent(x, y, m.Alpha, clampL1Ratio(m.L1Ratio), m.Selection, m.MaxIter, m.Tol, m.Seed, &m.scaler, &m.center)
	if err != nil {
		return err
	}
	m.Coef, m.Intercept, m.fitted = coef, icpt, true
	return nil
}

// Predict returns predictions for the given rows.
func (m *ElasticNet) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: ElasticNet.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}

// ElasticNetCV selects α by chronological cross-validation over a
// geometric grid (time-series aware: each fold's validation block
// follows its training block), then refits on all data, mirroring
// scikit-learn's ElasticNetCV used in Table 2.
type ElasticNetCV struct {
	L1Ratio   float64
	Selection SelectionRule
	NumAlphas int
	Folds     int
	Seed      int64

	BestAlpha float64
	inner     *ElasticNet
}

// NewElasticNetCV returns a CV-tuned elastic net.
func NewElasticNetCV(l1Ratio float64, sel SelectionRule) *ElasticNetCV {
	return &ElasticNetCV{L1Ratio: l1Ratio, Selection: sel, NumAlphas: 10, Folds: 3}
}

// Fit selects alpha and refits on the full data. NumAlphas 1 means the
// single grid point 1e-4; NumAlphas ≤ 0 is an error.
func (m *ElasticNetCV) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	if m.NumAlphas <= 0 {
		return fmt.Errorf("linmodel: ElasticNetCV.NumAlphas = %d, want ≥ 1", m.NumAlphas)
	}
	alphas := make([]float64, m.NumAlphas)
	for i := range alphas {
		// Geometric grid from 1e-4 to 1e1.
		var frac float64
		if len(alphas) > 1 {
			frac = float64(i) / float64(len(alphas)-1)
		}
		alphas[i] = math.Pow(10, -4+5*frac)
	}
	folds := m.Folds
	if folds < 2 {
		folds = 2
	}
	n := len(x)
	if n < folds*4 {
		folds = 2
	}
	// A fold's scaler, centred target and column norms depend only on
	// its training block, so each fold's design is built once and
	// solved for every alpha.
	type cvFold struct {
		cd       *cdProblem
		cut, end int
	}
	fs := make([]cvFold, 0, folds-1)
	for f := 1; f < folds; f++ {
		cut := n * f / folds
		end := n * (f + 1) / folds
		if cut < 2 || end <= cut {
			continue
		}
		fs = append(fs, cvFold{cd: newCDProblem(x[:cut], y[:cut]), cut: cut, end: end})
	}
	rho := clampL1Ratio(m.L1Ratio)
	bestAlpha, bestErr := alphas[0], math.Inf(1)
	for _, a := range alphas {
		var total float64
		var count int
		for _, fd := range fs {
			w := fd.cd.solve(a, rho, m.Selection, defaultMaxIter, defaultTol, m.Seed)
			for r, row := range x[fd.cut:fd.end] {
				d := (fd.cd.sc.dotRow(w, row) + fd.cd.ct.mean) - y[fd.cut+r]
				total += d * d
			}
			count += fd.end - fd.cut
		}
		if count == 0 {
			continue
		}
		if mse := total / float64(count); mse < bestErr {
			bestErr, bestAlpha = mse, a
		}
	}
	m.BestAlpha = bestAlpha
	m.inner = NewElasticNet(bestAlpha, m.L1Ratio, m.Selection)
	m.inner.Seed = m.Seed
	return m.inner.Fit(x, y)
}

// Predict returns predictions for the given rows.
func (m *ElasticNetCV) Predict(x [][]float64) []float64 {
	if m.inner == nil {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: ElasticNetCV.Predict before Fit")
	}
	return m.inner.Predict(x)
}

// clampL1Ratio clamps an elastic-net mixing ratio into [0, 1].
func clampL1Ratio(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho > 1 {
		rho = 1
	}
	return rho
}

// coordinateDescent minimizes the elastic-net objective on
// standardized features and a centred target and returns the
// coefficients and intercept in that standardized space.
func coordinateDescent(x [][]float64, y []float64, alpha, l1Ratio float64, sel SelectionRule,
	maxIter int, tol float64, seed int64, sc *scaler, ct *centerer) ([]float64, float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, 0, errEmptyTraining
	}
	cd := newCDProblem(x, y)
	*sc, *ct = cd.sc, cd.ct
	return cd.solve(alpha, l1Ratio, sel, maxIter, tol, seed), ct.mean, nil
}

// cdProblem is one standardized elastic-net design, ready to be solved
// for any penalty. The features are stored column-major (column j is
// cols[j*n:(j+1)*n]), so the dot products and residual updates of a
// coordinate step walk contiguous column slices.
type cdProblem struct {
	sc      scaler
	ct      centerer
	n, p    int
	cols    []float64
	yc      []float64
	colNorm []float64 // (1/n)·‖x_j‖², floored at 1e-12
	rng     *rand.Rand
}

// newCDProblem fits the scaler and the target centring on (x, y) and
// builds the standardized column-major design. x must be non-empty and
// as long as y.
func newCDProblem(x [][]float64, y []float64) *cdProblem {
	cd := &cdProblem{n: len(x)}
	cd.sc.fit(x)
	cd.p = len(cd.sc.mean)
	cd.cols = cd.sc.transformCols(x)
	cd.yc = cd.ct.fit(y)
	cd.colNorm = make([]float64, cd.p)
	// Features are unit variance after scaling so these norms are ≈ 1,
	// but they are computed exactly.
	nf := float64(cd.n)
	for j := range cd.colNorm {
		var s float64
		for _, v := range cd.col(j) {
			s += v * v
		}
		s /= nf
		if s < 1e-12 {
			s = 1e-12
		}
		cd.colNorm[j] = s
	}
	return cd
}

// solve runs coordinate descent with soft-thresholding from w = 0 and
// returns the coefficients. Random selection reshuffles the update
// order every sweep from a generator seeded with seed.
func (cd *cdProblem) solve(alpha, l1Ratio float64, sel SelectionRule, maxIter int, tol float64, seed int64) []float64 {
	nf := float64(cd.n)
	w := make([]float64, cd.p)
	resid := append([]float64(nil), cd.yc...) // resid = y − Xw with w = 0
	l1 := alpha * l1Ratio
	l2 := alpha * (1 - l1Ratio)
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	order := make([]int, cd.p)
	for j := range order {
		order[j] = j
	}
	var swap func(a, b int)
	if sel == SelectionRandom {
		// Reseeding puts the generator in the same state as a fresh
		// rand.NewSource(seed), without another 4.9 KB source per solve.
		if cd.rng == nil {
			cd.rng = rand.New(rand.NewSource(seed))
		} else {
			cd.rng.Seed(seed)
		}
		swap = func(a, b int) { order[a], order[b] = order[b], order[a] }
	}

	for iter := 0; iter < maxIter; iter++ {
		if swap != nil {
			cd.rng.Shuffle(cd.p, swap)
		}
		var maxDelta float64
		// After a move, subDot has already computed the next
		// coordinate's x_jᵀ·resid.
		var pending float64
		havePending := false
		for k, j := range order {
			col := cd.col(j)
			rho := pending
			if !havePending {
				rho = dot(col, resid)
			}
			havePending = false
			// rho_j = (1/n)·x_jᵀ·(resid + x_j·w_j)
			rho = rho/nf + cd.colNorm[j]*w[j]
			var newW float64
			if rho > l1 {
				newW = (rho - l1) / (cd.colNorm[j] + l2)
			} else if rho < -l1 {
				newW = (rho + l1) / (cd.colNorm[j] + l2)
			}
			if d := newW - w[j]; d != 0 {
				if k+1 < len(order) {
					pending, havePending = subDot(resid, d, col, cd.col(order[k+1])), true
				} else {
					sub(resid, d, col)
				}
				w[j] = newW
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return w
}

// col returns standardized feature column j.
func (cd *cdProblem) col(j int) []float64 { return cd.cols[j*cd.n : (j+1)*cd.n] }

// The kernels below sum in index order with one accumulator, in the
// expression shapes rho += v*r[i] and r[i] -= d*v.

// dot returns col·r.
func dot(col, r []float64) float64 {
	r = r[:len(col)]
	var rho float64
	for i, v := range col {
		rho += v * r[i]
	}
	return rho
}

// sub subtracts d·col from r.
func sub(r []float64, d float64, col []float64) {
	r = r[:len(col)]
	for i, v := range col {
		r[i] -= d * v
	}
}

// subDot subtracts d·col from r and returns next·r over the updated r,
// in one pass. Every r[i] is final before it is read, so the result
// has the bits of sub followed by dot(next, r); the update runs in the
// shadow of the dot product's add latency instead of a pass of its own.
func subDot(r []float64, d float64, col, next []float64) float64 {
	r = r[:len(col)]
	next = next[:len(col)]
	var rho float64
	for i, v := range col {
		r[i] -= d * v
		rho += next[i] * r[i]
	}
	return rho
}
