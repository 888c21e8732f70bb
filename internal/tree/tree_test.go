package tree

import (
	"math"
	"math/rand"
	"testing"
)

// stepData produces y = 1 if x0 > 0.5 else 0, a single clean split.
func stepData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		if x[i][0] > 0.5 {
			y[i] = 1
		}
	}
	return x, y
}

func TestRegressorLearnsStep(t *testing.T) {
	x, y := stepData(200, 1)
	tr := NewRegressor(Options{MaxDepth: 3})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := tr.PredictOne([]float64{0.9, 0.5}); math.Abs(got-1) > 0.05 {
		t.Errorf("pred(high) = %v, want ≈ 1", got)
	}
	if got := tr.PredictOne([]float64{0.1, 0.5}); math.Abs(got) > 0.05 {
		t.Errorf("pred(low) = %v, want ≈ 0", got)
	}
	// Feature 0 carries all the importance.
	imp := tr.FeatureImportances()
	if imp[0] < 0.9 {
		t.Errorf("importances = %v, want feature 0 dominant", imp)
	}
}

func TestRegressorFitsQuadratic(t *testing.T) {
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := float64(i)/float64(n)*4 - 2
		x[i] = []float64{v}
		y[i] = v * v
	}
	tr := NewRegressor(Options{MaxDepth: 8})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := range x {
		d := tr.PredictOne(x[i]) - y[i]
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.01 {
		t.Errorf("deep tree MSE on smooth function = %v, want < 0.01", mse)
	}
}

func TestRegressorDepthLimit(t *testing.T) {
	x, y := stepData(500, 2)
	stump := NewRegressor(Options{MaxDepth: 1})
	if err := stump.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if stump.NumNodes() > 3 {
		t.Errorf("depth-1 tree has %d nodes, want ≤ 3", stump.NumNodes())
	}
}

func TestRegressorMinSamplesLeaf(t *testing.T) {
	x, y := stepData(100, 3)
	tr := NewRegressor(Options{MinSamplesLeaf: 40})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// With a 40-sample floor, very unbalanced splits are forbidden, and
	// the fitted tree must remain small.
	if tr.NumNodes() > 5 {
		t.Errorf("min-leaf-constrained tree has %d nodes", tr.NumNodes())
	}
}

func TestRegressorConstantTarget(t *testing.T) {
	x, _ := stepData(50, 4)
	y := make([]float64, 50)
	for i := range y {
		y[i] = 7
	}
	tr := NewRegressor(Options{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Errorf("constant-target tree has %d nodes, want 1", tr.NumNodes())
	}
	if got := tr.PredictOne(x[0]); got != 7 {
		t.Errorf("constant pred = %v", got)
	}
}

func TestRegressorEmptyInput(t *testing.T) {
	tr := NewRegressor(Options{})
	if err := tr.Fit(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
}

func TestRegressorPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Predict before Fit did not panic")
		}
	}()
	NewRegressor(Options{}).PredictOne([]float64{1})
}

func TestRandomThresholdsStillLearn(t *testing.T) {
	x, y := stepData(500, 5)
	tr := NewRegressor(Options{MaxDepth: 6, RandomThresholds: true, Seed: 1})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := range x {
		d := tr.PredictOne(x[i]) - y[i]
		mse += d * d
	}
	if mse/float64(len(x)) > 0.1 {
		t.Errorf("extra-trees style MSE = %v", mse/float64(len(x)))
	}
}

func classData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		// Three classes via two thresholds on x0.
		switch {
		case x[i][0] < 0.33:
			y[i] = 0
		case x[i][0] < 0.66:
			y[i] = 1
		default:
			y[i] = 2
		}
	}
	return x, y
}

func TestClassifierLearnsBands(t *testing.T) {
	x, y := classData(600, 6)
	clf := NewClassifier(Options{MaxDepth: 4}, 3)
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if clf.PredictOne(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.97 {
		t.Errorf("train accuracy = %v, want ≥ 0.97", acc)
	}
	imp := clf.FeatureImportances()
	if imp[0] < 0.9 {
		t.Errorf("class importances = %v, want feature 0 dominant", imp)
	}
}

func TestClassifierProbabilitiesSumToOne(t *testing.T) {
	x, y := classData(300, 7)
	clf := NewClassifier(Options{MaxDepth: 2}, 3)
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		dist := clf.PredictProbaOne(x[i])
		var s float64
		for _, p := range dist {
			if p < 0 {
				t.Fatalf("negative probability %v", p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestClassifierPureNode(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	clf := NewClassifier(Options{}, 2)
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if clf.NumNodes() != 1 {
		t.Errorf("pure-label tree has %d nodes", clf.NumNodes())
	}
	if clf.PredictOne([]float64{5}) != 1 {
		t.Error("pure-label prediction wrong")
	}
}

func TestClassifierRandomThresholds(t *testing.T) {
	x, y := classData(600, 8)
	clf := NewClassifier(Options{MaxDepth: 8, RandomThresholds: true, Seed: 3}, 3)
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if clf.PredictOne(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.9 {
		t.Errorf("random-threshold accuracy = %v", acc)
	}
}

func TestGradTreeMatchesSquaredLossMean(t *testing.T) {
	// For squared loss with predictions at 0: g = -y, h = 1. A stump
	// with lambda=0 should produce leaf values equal to leaf means.
	x, y := stepData(400, 9)
	g := make([]float64, len(y))
	h := make([]float64, len(y))
	idx := make([]int, len(y))
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
		idx[i] = i
	}
	gt := &GradTree{MaxDepth: 1, Lambda: 0}
	if err := gt.FitGrad(Presort(x), g, h, idx); err != nil {
		t.Fatal(err)
	}
	if got := gt.PredictOne([]float64{0.9, 0}); math.Abs(got-1) > 0.05 {
		t.Errorf("grad leaf(high) = %v, want ≈ 1", got)
	}
	if got := gt.PredictOne([]float64{0.1, 0}); math.Abs(got) > 0.05 {
		t.Errorf("grad leaf(low) = %v, want ≈ 0", got)
	}
}

func TestGradTreeLambdaShrinksLeaves(t *testing.T) {
	x, y := stepData(200, 10)
	g := make([]float64, len(y))
	h := make([]float64, len(y))
	idx := make([]int, len(y))
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
		idx[i] = i
	}
	small := &GradTree{MaxDepth: 1, Lambda: 0}
	big := &GradTree{MaxDepth: 1, Lambda: 100}
	if err := small.FitGrad(Presort(x), g, h, idx); err != nil {
		t.Fatal(err)
	}
	if err := big.FitGrad(Presort(x), g, h, idx); err != nil {
		t.Fatal(err)
	}
	ps := small.PredictOne([]float64{0.9, 0})
	pb := big.PredictOne([]float64{0.9, 0})
	if !(math.Abs(pb) < math.Abs(ps)) {
		t.Errorf("lambda=100 leaf %v not shrunk vs lambda=0 leaf %v", pb, ps)
	}
}

func TestGradTreeGammaPrunes(t *testing.T) {
	x, y := stepData(200, 11)
	g := make([]float64, len(y))
	h := make([]float64, len(y))
	idx := make([]int, len(y))
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
		idx[i] = i
	}
	gt := &GradTree{MaxDepth: 4, Gamma: 1e9}
	if err := gt.FitGrad(Presort(x), g, h, idx); err != nil {
		t.Fatal(err)
	}
	if gt.NumNodes() != 1 {
		t.Errorf("huge gamma still split: %d nodes", gt.NumNodes())
	}
}

func TestGradTreeSubsetIndices(t *testing.T) {
	x, y := stepData(100, 12)
	g := make([]float64, len(y))
	h := make([]float64, len(y))
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
	}
	// Fit only on the first half.
	idx := make([]int, 50)
	for i := range idx {
		idx[i] = i
	}
	gt := &GradTree{MaxDepth: 2}
	if err := gt.FitGrad(Presort(x), g, h, idx); err != nil {
		t.Fatal(err)
	}
	// Must still predict on any row.
	_ = gt.PredictOne(x[99])
}

func TestMaxFeaturesSubsampling(t *testing.T) {
	x, y := stepData(300, 13)
	tr := NewRegressor(Options{MaxDepth: 4, MaxFeatures: 1, Seed: 7})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// With only one feature per split it can still eventually use x0.
	var mse float64
	for i := range x {
		d := tr.PredictOne(x[i]) - y[i]
		mse += d * d
	}
	if mse/float64(len(x)) > 0.26 {
		t.Errorf("max-features tree MSE = %v", mse/float64(len(x)))
	}
}
