package ensemble

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"fedforecaster/internal/tree"
)

// ForestOptions configure random forests and extra trees.
type ForestOptions struct {
	NumTrees       int  // default 100
	MaxDepth       int  // 0 = unlimited
	MinSamplesLeaf int  // default 1
	MaxFeatures    int  // 0 = √p for classification, p/3 for regression
	Bootstrap      bool // sample rows with replacement per tree
	ExtraTrees     bool // random thresholds, no bootstrap (extra-trees variant)
	Seed           int64
}

func (o ForestOptions) normalized(isClassifier bool, p int) ForestOptions {
	if o.NumTrees <= 0 {
		o.NumTrees = 100
	}
	if o.MaxFeatures <= 0 {
		if isClassifier {
			o.MaxFeatures = int(math.Ceil(math.Sqrt(float64(p))))
		} else {
			o.MaxFeatures = (p + 2) / 3
		}
	}
	if o.ExtraTrees {
		o.Bootstrap = false
	}
	return o
}

// RandomForestRegressor averages bootstrapped CART regression trees.
// It supplies the feature-importance scores that drive the federated
// feature-selection stage (Section 4.2.2).
type RandomForestRegressor struct {
	Opts  ForestOptions
	trees []*tree.Regressor
	imp   []float64
}

// NewRandomForestRegressor returns a forest with the given options;
// Bootstrap defaults to true unless ExtraTrees is set.
func NewRandomForestRegressor(opts ForestOptions) *RandomForestRegressor {
	if !opts.ExtraTrees {
		opts.Bootstrap = true
	}
	return &RandomForestRegressor{Opts: opts}
}

// Fit trains the forest; trees are grown in parallel.
func (f *RandomForestRegressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	opts := f.Opts.normalized(false, len(x[0]))
	f.trees = make([]*tree.Regressor, opts.NumTrees)
	err := growForest(opts, x, y, func(t int, o tree.Options, x [][]float64, y []float64) error {
		f.trees[t] = tree.NewRegressor(o)
		return f.trees[t].Fit(x, y)
	})
	if err != nil {
		return err
	}
	// Average importances across trees.
	f.imp = make([]float64, len(x[0]))
	for _, tr := range f.trees {
		for j, v := range tr.FeatureImportances() {
			f.imp[j] += v
		}
	}
	for j := range f.imp {
		f.imp[j] /= float64(len(f.trees))
	}
	return nil
}

// Predict averages tree predictions.
func (f *RandomForestRegressor) Predict(x [][]float64) []float64 {
	if len(f.trees) == 0 {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("ensemble: RandomForestRegressor.Predict before Fit")
	}
	out := make([]float64, len(x))
	for i, row := range x {
		var s float64
		for _, tr := range f.trees {
			s += tr.PredictOne(row)
		}
		out[i] = s / float64(len(f.trees))
	}
	return out
}

// FeatureImportances returns tree-averaged normalized importances.
func (f *RandomForestRegressor) FeatureImportances() []float64 { return f.imp }

// RandomForestClassifier averages class distributions of bootstrapped
// CART classification trees (soft voting). With ExtraTrees set it
// becomes an Extra-Trees classifier.
type RandomForestClassifier struct {
	Opts  ForestOptions
	enc   *labelEncoder
	trees []*tree.Classifier
}

// NewRandomForestClassifier returns a forest classifier.
func NewRandomForestClassifier(opts ForestOptions) *RandomForestClassifier {
	if !opts.ExtraTrees {
		opts.Bootstrap = true
	}
	return &RandomForestClassifier{Opts: opts}
}

// NewExtraTreesClassifier returns the extra-trees variant (random
// thresholds, no bootstrap).
func NewExtraTreesClassifier(opts ForestOptions) *RandomForestClassifier {
	opts.ExtraTrees = true
	return &RandomForestClassifier{Opts: opts}
}

// Fit trains the forest on string labels.
func (f *RandomForestClassifier) Fit(x [][]float64, y []string) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	f.enc = newLabelEncoder(y)
	yi := f.enc.encode(y)
	opts := f.Opts.normalized(true, len(x[0]))
	f.trees = make([]*tree.Classifier, opts.NumTrees)
	return growForest(opts, x, yi, func(t int, o tree.Options, x [][]float64, y []int) error {
		f.trees[t] = tree.NewClassifier(o, f.enc.numClasses())
		return f.trees[t].Fit(x, y)
	})
}

func (f *RandomForestClassifier) distFor(row []float64) []float64 {
	k := f.enc.numClasses()
	dist := make([]float64, k)
	for _, tr := range f.trees {
		for c, p := range tr.PredictProbaOne(row) {
			dist[c] += p
		}
	}
	for c := range dist {
		dist[c] /= float64(len(f.trees))
	}
	return dist
}

// PredictProba returns per-row label probabilities.
func (f *RandomForestClassifier) PredictProba(x [][]float64) []map[string]float64 {
	if len(f.trees) == 0 {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("ensemble: RandomForestClassifier.Predict before Fit")
	}
	out := make([]map[string]float64, len(x))
	for i, row := range x {
		out[i] = f.enc.distToMap(f.distFor(row))
	}
	return out
}

// growForest fits opts.NumTrees trees in parallel, at most GOMAXPROCS
// at a time, and returns the first error in tree order. Tree t is fitted
// by grow on the bootstrap drawn from seed Seed + t·7919 (all rows
// without Bootstrap), with tree options seeded Seed + t·104729.
func growForest[T any](opts ForestOptions, x [][]float64, y []T, grow func(t int, o tree.Options, x [][]float64, y []T) error) error {
	errs := make([]error, opts.NumTrees)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < opts.NumTrees; t++ {
		wg.Add(1)
		sem <- struct{}{}
		//lint:allow hotalloc one goroutine per tree; its closure is noise next to the tree fit it runs
		go func(t int) {
			defer wg.Done()
			//lint:allow hotalloc released once per tree fit, like the goroutine above
			defer func() { <-sem }()
			xt, yt := x, y
			if opts.Bootstrap {
				xt, yt = bootstrap(x, y, rand.New(rand.NewSource(opts.Seed+int64(t)*7919)))
			}
			errs[t] = grow(t, tree.Options{
				MaxDepth:         opts.MaxDepth,
				MinSamplesLeaf:   opts.MinSamplesLeaf,
				MaxFeatures:      opts.MaxFeatures,
				RandomThresholds: opts.ExtraTrees,
				Seed:             opts.Seed + int64(t)*104729,
			}, xt, yt)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bootstrap draws len(x) rows of (x, y) with replacement.
func bootstrap[T any](x [][]float64, y []T, rng *rand.Rand) ([][]float64, []T) {
	n := len(x)
	xb := make([][]float64, n)
	yb := make([]T, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(n)
		xb[i], yb[i] = x[j], y[j]
	}
	return xb, yb
}
