package ensemble

import "fedforecaster/internal/tree"

// GBMOptions configure classical gradient boosting.
type GBMOptions struct {
	NumTrees     int     // default 100
	MaxDepth     int     // default 3
	LearningRate float64 // default 0.1
}

func (o GBMOptions) normalized() GBMOptions {
	if o.NumTrees <= 0 {
		o.NumTrees = 100
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	return o
}

// GradientBoostingClassifier boosts one regression-tree sequence per
// class against the softmax cross-entropy gradient (multiclass
// deviance, as in scikit-learn's GradientBoostingClassifier), starting
// from the log class priors.
type GradientBoostingClassifier struct {
	Opts GBMOptions
	softmaxBooster
}

// NewGradientBoostingClassifier returns a booster with the given options.
func NewGradientBoostingClassifier(opts GBMOptions) *GradientBoostingClassifier {
	return &GradientBoostingClassifier{Opts: opts}
}

// Fit trains the booster on string labels.
func (m *GradientBoostingClassifier) Fit(x [][]float64, y []string) error {
	opts := m.Opts.normalized()
	resid := make([]float64, len(x))
	return m.fit(x, y, opts.NumTrees, opts.LearningRate, true, func(_, _ int, g, _ []float64) (stageTree, error) {
		// Each tree fits the negative gradient 1{y=c} − p. Its sums
		// cannot tell the −0 this writes for a zero gradient from +0.
		for i, v := range g {
			resid[i] = -v
		}
		tr := tree.NewRegressor(tree.Options{MaxDepth: opts.MaxDepth})
		return tr, tr.Fit(x, resid)
	})
}
