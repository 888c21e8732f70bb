package linmodel

import "sync"

// Design is one training design's linear state, shared by every linear
// candidate fitted on it: the column scaler, the centred target, the
// standardized rows with an intercept column of ones appended, and the
// unit-weight Gram of those rows with its Xᵀy. None of it depends on
// alpha, selection, l1_ratio or epsilon, so Lasso, ElasticNet,
// ElasticNetCV and HuberRegressor fitted through FitDesign on one
// Design build it once between them instead of once per fit
// (DESIGN.md "One design per phase").
//
// The state is built lazily, on the first fit, and a build error (an
// empty or ragged design) is kept with it, so every later fit returns
// the same error. Fits only read the state, so one Design serves
// concurrent fits. The caller must not change x or y afterwards.
type Design struct {
	x [][]float64
	y []float64

	once sync.Once
	st   designState
	err  error

	foldMu sync.Mutex
	folds  []designFold // guarded by foldMu
}

// NewDesign returns the Design of the training rows x and targets y.
// It builds nothing until a fit asks for the state.
func NewDesign(x [][]float64, y []float64) *Design {
	return &Design{x: x, y: y}
}

// designState is a Design's built state. cd holds the scaler and the
// target centring for both model families.
type designState struct {
	cd    cdProblem   // Lasso and ElasticNet's Gram form
	yc    []float64   // centred target
	xs    [][]float64 // standardized rows, p+1 columns, the last one 1
	base  []float64   // upper triangle of xsᵀxs, (p+1)×(p+1) row-major
	baseY []float64   // xsᵀyc
}

// designFold is ElasticNetCV's Gram-form problem of one training block
// x[:cut].
type designFold struct {
	cut int
	cd  *cdProblem
}

// state returns the built state, building it on the first call.
func (d *Design) state() (*designState, error) {
	d.once.Do(func() { d.err = d.st.build(d.x, d.y) })
	if d.err != nil {
		return nil, d.err
	}
	return &d.st, nil
}

// fold returns the Gram-form problem of the training block x[:cut],
// y[:cut], built on the first call for that cut. ElasticNetCV's folds
// depend on the block alone, not on l1_ratio or selection.
func (d *Design) fold(cut int) (*cdProblem, error) {
	d.foldMu.Lock()
	defer d.foldMu.Unlock()
	for _, f := range d.folds {
		if f.cut == cut {
			return f.cd, nil
		}
	}
	var st designState
	if err := st.build(d.x[:cut], d.y[:cut]); err != nil {
		return nil, err
	}
	// Keep the Gram form alone, in a slab of its own: the block's
	// standardized rows are not read again, and the memo lives as long
	// as the design.
	cd := st.cd
	p := cd.p
	buf := make([]float64, 0, p*p+2*p)
	buf = append(append(append(buf, cd.gram...), cd.xty...), cd.colNorm...)
	cd.gram, cd.xty, cd.colNorm = buf[:p*p:p*p], buf[p*p:p*p+p:p*p+p], buf[p*p+p:]
	d.folds = append(d.folds, designFold{cut: cut, cd: &cd})
	return &cd, nil
}

// build fits the scaler and the target centring on (x, y), standardizes
// the rows and accumulates their unit-weight Gram, four rows at a time
// with addOuter4 and the last few with addOuter: every entry is summed
// over rows 0…n−1 with one accumulator. The elastic-net Gram form is
// that Gram's leading p×p block and Xᵀy over n, so it has the bits of
// summing the standardized rows one by one. An empty x, a y of another
// length or ragged rows are errors.
func (st *designState) build(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	cd := &st.cd
	if err := cd.sc.fit(x); err != nil {
		return err
	}
	n, p := len(x), len(cd.sc.mean)
	q := p + 1
	// One slab for everything built here but the scaler and the row
	// headers.
	buf := make([]float64, n+n*q+q*q+q+p*p+2*p)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	yc := cd.ct.fitInto(y, take(n))
	xs := cd.sc.transformInto(x, 1, take(n*q))
	for _, row := range xs {
		row[p] = 1
	}
	base, baseY := take(q*q), take(q)
	i := 0
	for ; i+4 <= n; i += 4 {
		addOuter4(base, baseY,
			[4][]float64{xs[i], xs[i+1], xs[i+2], xs[i+3]},
			[4]float64{1, 1, 1, 1},
			[4]float64{yc[i], yc[i+1], yc[i+2], yc[i+3]})
	}
	for ; i < n; i++ {
		addOuter(base, baseY, xs[i], 1, yc[i])
	}
	st.yc, st.xs, st.base, st.baseY = yc, xs, base, baseY

	// Features are unit variance after scaling, so the diagonal, the
	// column norms (1/n)·‖z_j‖², is ≈ 1.
	cd.p = p
	cd.gram, cd.xty, cd.colNorm = take(p*p), take(p), take(p)
	nf := float64(n)
	for j := 0; j < p; j++ {
		cd.xty[j] = baseY[j] / nf
		for k := j; k < p; k++ {
			cd.gram[j*p+k] = base[j*q+k] / nf
		}
		cd.colNorm[j] = max(cd.gram[j*p+j], 1e-12)
	}
	mirrorUpper(cd.gram, p)
	return nil
}
