package ensemble

// LGBMOptions configure the LightGBM-style booster: leaf-wise
// (best-first) growth over quantile-binned histograms.
type LGBMOptions struct {
	NumTrees     int     // default 100
	NumLeaves    int     // default 31
	LearningRate float64 // default 0.1
	Lambda       float64 // L2 on leaf weights, default 1
	MaxBins      int     // default 64
	Seed         int64
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
	if o.Lambda <= 0 {
		o.Lambda = 1
	}
	if o.MaxBins <= 0 {
		o.MaxBins = 64
	}
	return o
}

// LGBMClassifier is a multiclass leaf-wise histogram booster in the
// LightGBM family, one tree sequence per class on softmax gradients.
type LGBMClassifier struct {
	Opts  LGBMOptions
	enc   *labelEncoder
	trees [][][]histNode // [stage][class] → flat node slice
}

// NewLGBMClassifier returns a booster with the given options.
func NewLGBMClassifier(opts LGBMOptions) *LGBMClassifier { return &LGBMClassifier{Opts: opts} }

// Fit trains the booster on string labels.
func (m *LGBMClassifier) Fit(x [][]float64, y []string) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	opts := m.Opts.normalized()
	m.enc = newLabelEncoder(y)
	yi := m.enc.encode(y)
	n, k := len(x), m.enc.numClasses()

	b := newBinner(x, opts.MaxBins)
	binned := b.binMatrix(x)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}

	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, k)
	}
	g := make([]float64, n)
	h := make([]float64, n)
	probs := make([]float64, k)
	m.trees = m.trees[:0]
	for t := 0; t < opts.NumTrees; t++ {
		stage := make([][]histNode, k)
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				softmaxInto(scores[i], probs)
				p := probs[c]
				target := 0.0
				if yi[i] == c {
					target = 1
				}
				g[i] = p - target
				h[i] = p * (1 - p)
				if h[i] < 1e-6 {
					h[i] = 1e-6
				}
			}
			stage[c] = growLeafWise(binned, b, g, h, rows, opts.NumLeaves, opts.Lambda, 1e-3)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				scores[i][c] += float64(opts.LearningRate * histTreePredict(stage[c], x[i]))
			}
		}
		m.trees = append(m.trees, stage)
	}
	return nil
}

func (m *LGBMClassifier) scoresFor(row []float64) []float64 {
	lr := m.Opts.normalized().LearningRate
	s := make([]float64, m.enc.numClasses())
	for _, stage := range m.trees {
		for c, nodes := range stage {
			s[c] += float64(lr * histTreePredict(nodes, row))
		}
	}
	return s
}

// PredictProba returns per-row label probabilities.
func (m *LGBMClassifier) PredictProba(x [][]float64) []map[string]float64 {
	if m.trees == nil {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("ensemble: LGBMClassifier.Predict before Fit")
	}
	out := make([]map[string]float64, len(x))
	probs := make([]float64, m.enc.numClasses())
	for i, row := range x {
		softmaxInto(m.scoresFor(row), probs)
		out[i] = m.enc.distToMap(probs)
	}
	return out
}

// CatBoostOptions configure the CatBoost-style booster: symmetric
// (oblivious) trees over binned features.
type CatBoostOptions struct {
	NumTrees     int     // default 100
	Depth        int     // oblivious tree depth, default 6
	LearningRate float64 // default 0.1
	Lambda       float64 // L2 on leaf weights, default 3 (CatBoost default)
	MaxBins      int     // default 64
	Seed         int64
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
	if o.Lambda <= 0 {
		o.Lambda = 3
	}
	if o.MaxBins <= 0 {
		o.MaxBins = 64
	}
	return o
}

// CatBoostClassifier is a multiclass oblivious-tree booster in the
// CatBoost family: every level of each tree applies one shared split
// condition, giving strongly regularized, fast-to-evaluate trees.
type CatBoostClassifier struct {
	Opts  CatBoostOptions
	enc   *labelEncoder
	trees [][]*obliviousTree // [stage][class]
}

// NewCatBoostClassifier returns a booster with the given options.
func NewCatBoostClassifier(opts CatBoostOptions) *CatBoostClassifier {
	return &CatBoostClassifier{Opts: opts}
}

// Fit trains the booster on string labels.
func (m *CatBoostClassifier) Fit(x [][]float64, y []string) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	opts := m.Opts.normalized()
	m.enc = newLabelEncoder(y)
	yi := m.enc.encode(y)
	n, k := len(x), m.enc.numClasses()

	b := newBinner(x, opts.MaxBins)
	binned := b.binMatrix(x)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}

	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, k)
	}
	g := make([]float64, n)
	h := make([]float64, n)
	probs := make([]float64, k)
	m.trees = m.trees[:0]
	for t := 0; t < opts.NumTrees; t++ {
		stage := make([]*obliviousTree, k)
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				softmaxInto(scores[i], probs)
				p := probs[c]
				target := 0.0
				if yi[i] == c {
					target = 1
				}
				g[i] = p - target
				h[i] = p * (1 - p)
				if h[i] < 1e-6 {
					h[i] = 1e-6
				}
			}
			stage[c] = growOblivious(binned, b, g, h, rows, opts.Depth, opts.Lambda)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				scores[i][c] += float64(opts.LearningRate * stage[c].predict(x[i]))
			}
		}
		m.trees = append(m.trees, stage)
	}
	return nil
}

func (m *CatBoostClassifier) scoresFor(row []float64) []float64 {
	lr := m.Opts.normalized().LearningRate
	s := make([]float64, m.enc.numClasses())
	for _, stage := range m.trees {
		for c, t := range stage {
			s[c] += float64(lr * t.predict(row))
		}
	}
	return s
}

// PredictProba returns per-row label probabilities.
func (m *CatBoostClassifier) PredictProba(x [][]float64) []map[string]float64 {
	if m.trees == nil {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("ensemble: CatBoostClassifier.Predict before Fit")
	}
	out := make([]map[string]float64, len(x))
	probs := make([]float64, m.enc.numClasses())
	for i, row := range x {
		softmaxInto(m.scoresFor(row), probs)
		out[i] = m.enc.distToMap(probs)
	}
	return out
}
