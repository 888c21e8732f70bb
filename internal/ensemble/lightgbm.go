package ensemble

// maxBins caps the quantile bins per feature of the LightGBM-style and
// CatBoost-style boosters.
const maxBins = 64

// LGBMOptions configure the LightGBM-style booster: leaf-wise
// (best-first) growth over quantile-binned histograms, with L2 weight 1
// on the leaf values.
type LGBMOptions struct {
	NumTrees     int     // default 100
	NumLeaves    int     // default 31
	LearningRate float64 // default 0.1
}

func (o LGBMOptions) normalized() LGBMOptions {
	if o.NumTrees <= 0 {
		o.NumTrees = 100
	}
	if o.NumLeaves <= 1 {
		o.NumLeaves = 31
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	return o
}

// LGBMClassifier is a multiclass leaf-wise histogram booster in the
// LightGBM family, one tree sequence per class on softmax gradients.
type LGBMClassifier struct {
	Opts LGBMOptions
	softmaxBooster
}

// NewLGBMClassifier returns a booster with the given options.
func NewLGBMClassifier(opts LGBMOptions) *LGBMClassifier { return &LGBMClassifier{Opts: opts} }

// Fit trains the booster on string labels.
func (m *LGBMClassifier) Fit(x [][]float64, y []string) error {
	opts := m.Opts.normalized()
	b := newBinner(x, maxBins)
	binned, rows := b.binMatrix(x), allRows(len(x))
	scratch := newLeafWiseScratch(b, len(rows), opts.NumLeaves)
	return m.fit(x, y, opts.NumTrees, opts.LearningRate, false, func(_, _ int, g, h []float64) (stageTree, error) {
		return growLeafWise(binned, b, g, h, rows, opts.NumLeaves, 1, 1e-3, scratch), nil
	})
}

// CatBoostOptions configure the CatBoost-style booster: symmetric
// (oblivious) trees over binned features, with L2 weight 3 on the leaf
// values (CatBoost's default).
type CatBoostOptions struct {
	NumTrees     int     // default 100
	Depth        int     // oblivious tree depth, default 6
	LearningRate float64 // default 0.1
}

func (o CatBoostOptions) normalized() CatBoostOptions {
	if o.NumTrees <= 0 {
		o.NumTrees = 100
	}
	if o.Depth <= 0 {
		o.Depth = 6
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	return o
}

// CatBoostClassifier is a multiclass oblivious-tree booster in the
// CatBoost family: every level of each tree applies one shared split
// condition, giving strongly regularized, fast-to-evaluate trees.
type CatBoostClassifier struct {
	Opts CatBoostOptions
	softmaxBooster
}

// NewCatBoostClassifier returns a booster with the given options.
func NewCatBoostClassifier(opts CatBoostOptions) *CatBoostClassifier {
	return &CatBoostClassifier{Opts: opts}
}

// Fit trains the booster on string labels.
func (m *CatBoostClassifier) Fit(x [][]float64, y []string) error {
	opts := m.Opts.normalized()
	b := newBinner(x, maxBins)
	binned, rows := b.binMatrix(x), allRows(len(x))
	return m.fit(x, y, opts.NumTrees, opts.LearningRate, false, func(_, _ int, g, h []float64) (stageTree, error) {
		return growOblivious(binned, b, g, h, rows, opts.Depth, 3), nil
	})
}
