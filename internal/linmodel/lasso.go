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
	return m.FitDesign(NewDesign(x, y))
}

// FitDesign trains the model on a shared Design's state.
func (m *Lasso) FitDesign(d *Design) error {
	st, err := d.state()
	if err != nil {
		return err
	}
	cd := &st.cd
	m.scaler, m.center = cd.sc, cd.ct
	orders := newSweepOrders(m.Selection, cd.p, m.Seed, 0)
	m.Coef, m.Intercept, m.fitted = cd.solve(m.Alpha, 1, m.MaxIter, m.Tol, &orders), cd.ct.mean, true
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
	return m.FitDesign(NewDesign(x, y))
}

// FitDesign trains the model on a shared Design's state.
func (m *ElasticNet) FitDesign(d *Design) error {
	st, err := d.state()
	if err != nil {
		return err
	}
	orders := newSweepOrders(m.Selection, st.cd.p, m.Seed, 0)
	m.fit(&st.cd, &orders)
	return nil
}

// fit solves cd, taking the update orders from orders.
func (m *ElasticNet) fit(cd *cdProblem, orders *sweepOrders) {
	m.scaler, m.center = cd.sc, cd.ct
	m.Coef, m.Intercept, m.fitted = cd.solve(m.Alpha, clampL1Ratio(m.L1Ratio), m.MaxIter, m.Tol, orders), cd.ct.mean, true
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
	return m.FitDesign(NewDesign(x, y))
}

// FitDesign selects alpha and refits on a shared Design: the refit
// solves the design's own Gram form, and each fold's training block
// comes from the design's memo of them.
func (m *ElasticNetCV) FitDesign(d *Design) error {
	x, y := d.x, d.y
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	if m.NumAlphas <= 0 {
		return fmt.Errorf("linmodel: ElasticNetCV.NumAlphas = %d, want ≥ 1", m.NumAlphas)
	}
	// The validation blocks are scored row by row, so the whole design
	// must be rectangular, not only the training blocks: its build
	// checks that.
	st, err := d.state()
	if err != nil {
		return err
	}
	alphas := make([]float64, m.NumAlphas)
	for i := range alphas {
		// Geometric grid from 1e-4 to 1e1.
		var frac float64
		if len(alphas) > 1 {
			frac = float64(i) / float64(len(alphas)-1)
		}
		alphas[i] = math.Pow(10, -4+float64(5*frac))
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
	// its training block, so each fold's problem is built once per
	// design and solved for every alpha.
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
		cd, err := d.fold(cut)
		if err != nil {
			return err
		}
		fs = append(fs, cvFold{cd: cd, cut: cut, end: end})
	}
	// Every solve of this fit, the refit too, has the same (Selection,
	// Seed, p) and so the same update orders: one stream serves them all.
	orders := newSweepOrders(m.Selection, len(x[0]), m.Seed, defaultMaxIter)
	rho := clampL1Ratio(m.L1Ratio)
	bestAlpha, bestErr := alphas[0], math.Inf(1)
	for _, a := range alphas {
		var total float64
		var count int
		for _, fd := range fs {
			w := fd.cd.solve(a, rho, defaultMaxIter, defaultTol, &orders)
			for r, row := range x[fd.cut:fd.end] {
				d := (fd.cd.sc.dotRow(w, row) + fd.cd.ct.mean) - y[fd.cut+r]
				total += float64(d * d)
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
	m.inner.fit(&st.cd, &orders)
	return nil
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

// cdProblem is one elastic-net design in Gram form, ready to be solved
// by coordinate descent for any penalty. With Z the standardized
// features and yc the centred target it keeps gram = (1/n)·ZᵀZ (p×p,
// row-major) and xty = (1/n)·Zᵀyc, so a coordinate step costs O(p)
// whatever n is (glmnet's "covariance updates"). A Design builds it;
// solve only reads it, so concurrent solves may share one.
type cdProblem struct {
	sc      scaler
	ct      centerer
	p       int
	gram    []float64
	xty     []float64
	colNorm []float64 // diag(gram), floored at 1e-12
}

// addOuter adds wi·row·rowᵀ into the upper triangle of the row-major
// len(row)×len(row) matrix g and wi·yi·row into xty, each entry with
// one accumulator over the calls.
func addOuter(g, xty, row []float64, wi, yi float64) {
	p := len(row)
	xty = xty[:p]
	for j, xj := range row {
		a := float64(wi * xj)
		xty[j] += float64(a * yi)
		gj := g[j*p+j : (j+1)*p]
		rk := row[j:]
		gj = gj[:len(rk)]
		for k, v := range rk {
			gj[k] += float64(a * v)
		}
	}
}

// addOuter4 adds four rows at once as addOuter adds one: r[k] with
// weight wi[k] and target yi[k], for k = 0…3. Each entry of g and xty
// adds the four rows' terms in order k = 0…3 to its one accumulator, so
// the bits are those of four addOuter calls in that order; but each
// entry is loaded and stored once per four rows instead of once per
// row. The rows must be equally long.
func addOuter4(g, xty []float64, r [4][]float64, wi, yi [4]float64) {
	p := len(r[0])
	r0, r1, r2, r3 := r[0], r[1][:p], r[2][:p], r[3][:p]
	xty = xty[:p]
	for j := range r0 {
		a0, a1 := float64(wi[0]*r0[j]), float64(wi[1]*r1[j])
		a2, a3 := float64(wi[2]*r2[j]), float64(wi[3]*r3[j])
		t := xty[j]
		t += float64(a0 * yi[0])
		t += float64(a1 * yi[1])
		t += float64(a2 * yi[2])
		t += float64(a3 * yi[3])
		xty[j] = t
		q0 := r0[j:]
		q1, q2, q3 := r1[j:][:len(q0)], r2[j:][:len(q0)], r3[j:][:len(q0)]
		gj := g[j*p+j : (j+1)*p][:len(q0)]
		for k, v := range q0 {
			e := gj[k]
			e += float64(a0 * v)
			e += float64(a1 * q1[k])
			e += float64(a2 * q2[k])
			e += float64(a3 * q3[k])
			gj[k] = e
		}
	}
}

// mirrorUpper copies the upper triangle of the row-major p×p matrix g
// into its lower triangle.
func mirrorUpper(g []float64, p int) {
	for j := 0; j < p; j++ {
		for k := j + 1; k < p; k++ {
			g[k*p+j] = g[j*p+k]
		}
	}
}

// sweepOrders is the coordinate-descent update order of every sweep
// for one selection rule, seed and p. Cyclic selection takes 0…p−1 in
// every sweep. Random selection shuffles the previous sweep's order
// (0…p−1 before the first sweep) with a generator seeded with seed, as
// scikit-learn reshuffles per sweep, so a solve asks for sweeps 0, 1,
// 2, … in turn and gets the orders a fresh generator would give it.
//
// A replaying stream keeps every random order it draws, so the solves
// that share it (the folds and the refit of one ElasticNetCV fit) read
// the orders already drawn instead of each reseeding a generator and
// reshuffling. A stream that does not replay keeps only the latest
// order, so it serves one solve. Orders are kept as uint16: a
// cdProblem's p×p Gram bounds p far below 65,536.
type sweepOrders struct {
	p      int
	rng    *rand.Rand // nil for cyclic selection
	replay bool
	drawn  int      // random orders drawn
	orders []uint16 // 0…p−1, then sweep k's order at [(k+1)·p, (k+2)·p); without replay, the latest order only
}

// newSweepOrders returns the stream for (sel, p, seed). With
// replaySweeps > 0 a random stream replays, with room for that many
// sweeps before its orders grow.
func newSweepOrders(sel SelectionRule, p int, seed int64, replaySweeps int) sweepOrders {
	s := sweepOrders{p: p}
	if sel == SelectionRandom {
		s.rng = rand.New(rand.NewSource(seed))
		s.replay = replaySweeps > 0
	}
	size := p
	if s.replay {
		size = (replaySweeps + 1) * p
	}
	s.orders = make([]uint16, p, size)
	for j := range s.orders {
		s.orders[j] = uint16(j)
	}
	return s
}

// sweep returns the update order of sweep k.
func (s *sweepOrders) sweep(k int) []uint16 {
	if s.rng == nil {
		return s.orders
	}
	var next []uint16 // the order being shuffled
	swap := func(a, b int) { next[a], next[b] = next[b], next[a] }
	for ; s.drawn <= k; s.drawn++ {
		if s.replay {
			s.orders = append(s.orders, s.orders[len(s.orders)-s.p:]...)
		}
		next = s.orders[len(s.orders)-s.p:]
		s.rng.Shuffle(s.p, swap)
	}
	if !s.replay {
		return s.orders
	}
	return s.orders[(k+1)*s.p : (k+2)*s.p]
}

// solve runs coordinate descent with soft-thresholding from w = 0 and
// returns the coefficients. It keeps the correlations c = xty − gram·w
// in place of the residual: a coordinate reads rho from c[j], and a
// move by d updates c with row j of gram. Sweep k updates the
// coordinates in the order orders.sweep(k).
func (cd *cdProblem) solve(alpha, l1Ratio float64, maxIter int, tol float64, orders *sweepOrders) []float64 {
	p := cd.p
	buf := make([]float64, 2*p)
	w, c := buf[:p:p], buf[p:]
	copy(c, cd.xty) // c = xty − gram·w with w = 0
	l1 := float64(alpha * l1Ratio)
	l2 := float64(alpha * (1 - l1Ratio))
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}

	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for _, j16 := range orders.sweep(iter) {
			j := int(j16)
			// rho_j = (1/n)·z_jᵀ·(resid + z_j·w_j)
			rho := c[j] + float64(cd.colNorm[j]*w[j])
			var newW float64
			if rho > l1 {
				newW = (rho - l1) / (cd.colNorm[j] + l2)
			} else if rho < -l1 {
				newW = (rho + l1) / (cd.colNorm[j] + l2)
			}
			if d := newW - w[j]; d != 0 {
				g := cd.gram[j*p : (j+1)*p]
				c := c[:len(g)]
				for k, v := range g {
					c[k] -= float64(d * v)
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
