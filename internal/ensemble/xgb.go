package ensemble

import (
	"math/rand"

	"fedforecaster/internal/tree"
)

// XGBOptions mirror the Table 2 XGB Regressor hyper-parameters:
// n_estimators, max_depth, learning_rate, reg_lambda, and subsample.
type XGBOptions struct {
	NumTrees     int     // n_estimators, default 100
	MaxDepth     int     // default 6
	LearningRate float64 // default 0.3
	Lambda       float64 // reg_lambda (L2 on leaf weights), default 1
	Subsample    float64 // row subsampling per tree in (0, 1], default 1
	Seed         int64
}

func (o XGBOptions) normalized() XGBOptions {
	if o.NumTrees <= 0 {
		o.NumTrees = 100
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 6
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.3
	}
	if o.Lambda < 0 {
		o.Lambda = 1
	}
	if o.Subsample <= 0 || o.Subsample > 1 {
		o.Subsample = 1
	}
	return o
}

// XGBRegressor is a second-order gradient-boosted tree regressor with
// squared loss (g = pred − y, h = 1), L2 leaf regularization, and row
// subsampling — the "XGB Regressor" row of Table 2.
type XGBRegressor struct {
	Opts  XGBOptions
	base  float64
	trees []*tree.GradTree
}

// NewXGBRegressor returns a booster with the given options.
func NewXGBRegressor(opts XGBOptions) *XGBRegressor { return &XGBRegressor{Opts: opts} }

// Fit trains the booster.
func (m *XGBRegressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	opts := m.Opts.normalized()
	n := len(x)
	var mean float64
	for _, v := range y {
		mean += v
	}
	m.base = mean / float64(n)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.base
	}
	g := make([]float64, n)
	h := make([]float64, n)
	cols, sub := tree.Presort(x), make([]int, n)
	rng := rand.New(rand.NewSource(opts.Seed))
	m.trees = m.trees[:0]
	stages := make([]tree.GradTree, opts.NumTrees)
	for t := 0; t < opts.NumTrees; t++ {
		for i := 0; i < n; i++ {
			g[i] = pred[i] - y[i] // d/dpred ½(pred−y)²
			h[i] = 1
		}
		idx := subsample(sub, opts.Subsample, rng)
		gt := &stages[t]
		*gt = tree.GradTree{
			MaxDepth:       opts.MaxDepth,
			Lambda:         opts.Lambda,
			MinChildWeight: 1,
			Seed:           opts.Seed + int64(t)*31,
		}
		if err := gt.FitGrad(cols, g, h, idx); err != nil {
			return err
		}
		m.trees = append(m.trees, gt)
		for i := 0; i < n; i++ {
			pred[i] += float64(opts.LearningRate * gt.PredictOne(x[i]))
		}
	}
	return nil
}

// Predict sums the boosted trees.
func (m *XGBRegressor) Predict(x [][]float64) []float64 {
	if m.trees == nil {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("ensemble: XGBRegressor.Predict before Fit")
	}
	lr := m.Opts.normalized().LearningRate
	out := make([]float64, len(x))
	for i, row := range x {
		v := m.base
		for _, gt := range m.trees {
			v += float64(lr * gt.PredictOne(row))
		}
		out[i] = v
	}
	return out
}

// XGBClassifier boosts one GradTree sequence per class against the
// softmax cross-entropy's exact gradients and hessians.
type XGBClassifier struct {
	Opts XGBOptions
	softmaxBooster
}

// NewXGBClassifier returns a booster with the given options.
func NewXGBClassifier(opts XGBOptions) *XGBClassifier { return &XGBClassifier{Opts: opts} }

// Fit trains the booster on string labels.
func (m *XGBClassifier) Fit(x [][]float64, y []string) error {
	opts := m.Opts.normalized()
	cols, sub := tree.Presort(x), make([]int, len(x))
	rng := rand.New(rand.NewSource(opts.Seed))
	return m.fit(x, y, opts.NumTrees, opts.LearningRate, false, func(t, c int, g, h []float64) (stageTree, error) {
		gt := &tree.GradTree{
			MaxDepth:       opts.MaxDepth,
			Lambda:         opts.Lambda,
			MinChildWeight: 0.1,
			Seed:           opts.Seed + int64(t*31+c),
		}
		return gt, gt.FitGrad(cols, g, h, subsample(sub, opts.Subsample, rng))
	})
}

// subsample refills buf, one entry per row, with a stage's rows and
// returns them: every row when frac == 1, else the first frac·n of a
// permutation (rounded, at least 2) drawn with exactly the rng calls
// rng.Perm(n) makes.
func subsample(buf []int, frac float64, rng *rand.Rand) []int {
	n := len(buf)
	if frac >= 1 {
		for i := range buf {
			buf[i] = i
		}
		return buf
	}
	m := int(float64(frac*float64(n)) + 0.5)
	if m < 2 {
		m = 2
	}
	if m > n {
		m = n
	}
	for i := range buf { // rand.Perm's loop, in place
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf[:m]
}
