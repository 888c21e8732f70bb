package linmodel

import (
	"math"
	"math/rand"
	"testing"

	"fedforecaster/internal/model"
)

// linearData generates y = 3·x0 − 2·x1 + 5 + noise.
func linearData(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 3*x[i][0] - 2*x[i][1] + 5 + noise*rng.NormFloat64()
	}
	return x, y
}

// fitPredictMSE fits the model and returns train MSE.
func fitPredictMSE(t *testing.T, m model.Regressor, x [][]float64, y []float64) float64 {
	t.Helper()
	if err := m.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return model.MSE(m.Predict(x), y)
}

func TestLassoRecoversLinearAndSparsifies(t *testing.T) {
	x, y := linearData(300, 0.01, 2)
	m := NewLasso(0.001, SelectionCyclic)
	if mse := fitPredictMSE(t, m, x, y); mse > 0.05 {
		t.Errorf("lasso MSE = %v", mse)
	}
	// The third feature is irrelevant; with strong alpha it must be
	// driven to exactly zero while real features survive.
	strong := NewLasso(0.5, SelectionCyclic)
	if err := strong.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if strong.Coef[2] != 0 {
		t.Errorf("irrelevant coef = %v, want exactly 0", strong.Coef[2])
	}
	if strong.Coef[0] == 0 {
		t.Error("relevant coefficient zeroed out")
	}
}

func TestLassoHugeAlphaZeroesEverything(t *testing.T) {
	x, y := linearData(100, 0.1, 3)
	m := NewLasso(1e6, SelectionCyclic)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for j, c := range m.Coef {
		if c != 0 {
			t.Errorf("coef[%d] = %v, want 0 under huge alpha", j, c)
		}
	}
	// Intercept still predicts the mean.
	pred := m.Predict(x[:1])
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	if math.Abs(pred[0]-mean) > 1e-6 {
		t.Errorf("null-model prediction = %v, want mean %v", pred[0], mean)
	}
}

func TestLassoRandomSelectionConverges(t *testing.T) {
	x, y := linearData(300, 0.01, 4)
	m := NewLasso(0.001, SelectionRandom)
	m.Seed = 42
	if mse := fitPredictMSE(t, m, x, y); mse > 0.05 {
		t.Errorf("random-selection lasso MSE = %v", mse)
	}
}

func TestElasticNetRecoversLinear(t *testing.T) {
	x, y := linearData(300, 0.01, 5)
	m := NewElasticNet(0.001, 0.5, SelectionCyclic)
	if mse := fitPredictMSE(t, m, x, y); mse > 0.05 {
		t.Errorf("elastic net MSE = %v", mse)
	}
}

func TestElasticNetL1RatioClamped(t *testing.T) {
	x, y := linearData(100, 0.01, 6)
	// Table 2 allows l1_ratio up to 10; must not blow up.
	m := NewElasticNet(0.01, 10, SelectionCyclic)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatal("clamped l1_ratio produced NaN/Inf")
		}
	}
}

func TestElasticNetCVSelectsSmallAlphaOnCleanData(t *testing.T) {
	x, y := linearData(400, 0.01, 7)
	m := NewElasticNetCV(0.5, SelectionCyclic)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.BestAlpha > 0.1 {
		t.Errorf("BestAlpha = %v, want small on clean linear data", m.BestAlpha)
	}
	if mse := model.MSE(m.Predict(x), y); mse > 0.05 {
		t.Errorf("ENCV MSE = %v", mse)
	}
}

// TestElasticNetCVSingleAlpha pins NumAlphas = 1 to the grid's first
// point. The grid step used to divide 0 by 0, so BestAlpha came out NaN
// and the refit silently predicted the target mean.
func TestElasticNetCVSingleAlpha(t *testing.T) {
	x, y := linearData(200, 0.01, 17)
	m := NewElasticNetCV(0.5, SelectionCyclic)
	m.NumAlphas = 1
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(10, -4); m.BestAlpha != want {
		t.Fatalf("BestAlpha = %v, want %v", m.BestAlpha, want)
	}
	if mse := model.MSE(m.Predict(x), y); mse > 0.05 {
		t.Errorf("single-alpha ENCV MSE = %v, want a real fit", mse)
	}
}

// TestElasticNetCVNoAlphasErrors checks that an empty alpha grid is an
// error instead of an index-out-of-range panic.
func TestElasticNetCVNoAlphasErrors(t *testing.T) {
	x, y := linearData(50, 0.01, 18)
	for _, k := range []int{0, -3} {
		m := NewElasticNetCV(0.5, SelectionCyclic)
		m.NumAlphas = k
		if err := m.Fit(x, y); err == nil {
			t.Errorf("NumAlphas = %d: Fit returned nil error", k)
		}
	}
}

func TestLinearSVRRecoversLinear(t *testing.T) {
	x, y := linearData(400, 0.05, 8)
	m := NewLinearSVR(5, 0.01)
	if mse := fitPredictMSE(t, m, x, y); mse > 0.5 {
		t.Errorf("SVR MSE = %v", mse)
	}
}

func TestLinearSVREpsilonTube(t *testing.T) {
	// With a huge epsilon everything is inside the tube: coefficients
	// stay ≈ 0 and the model predicts ≈ the mean.
	x, y := linearData(200, 0.05, 9)
	m := NewLinearSVR(1, 100)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Coef {
		if math.Abs(c) > 0.5 {
			t.Errorf("coef %v should be shrunk under huge epsilon", c)
		}
	}
}

func TestHuberRecoversDespiteOutliers(t *testing.T) {
	x, y := linearData(300, 0.05, 10)
	// Corrupt 10% of the targets with gross outliers.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		y[rng.Intn(len(y))] += 500
	}
	hub := NewHuber(1.35, 0.0001)
	if err := hub.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Compare against a squared-loss fit, which outliers drag away.
	rid := NewLasso(0.0001, SelectionCyclic)
	if err := rid.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// True coefficient of x0 is 3 (after standardization ≈ 3·stdX0).
	// Evaluate on clean targets instead of comparing raw coefficients.
	xTest, yTest := linearData(200, 0.0, 12)
	hubMSE := model.MSE(hub.Predict(xTest), yTest)
	ridMSE := model.MSE(rid.Predict(xTest), yTest)
	if hubMSE > ridMSE {
		t.Errorf("huber MSE %v not better than squared loss %v under outliers", hubMSE, ridMSE)
	}
	if hubMSE > 5 {
		t.Errorf("huber clean-data MSE = %v, too high", hubMSE)
	}
}

func TestQuantileRegressorMedianAndTails(t *testing.T) {
	// y = 2·x + asymmetric noise; the 0.5 quantile line should pass
	// through the conditional median.
	rng := rand.New(rand.NewSource(13))
	n := 800
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.Float64()*4 - 2
		x[i] = []float64{v}
		y[i] = 2*v + rng.NormFloat64()
	}
	med := NewQuantile(0.5, 0.0001)
	if err := med.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	hi := NewQuantile(0.9, 0.0001)
	if err := hi.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	lo := NewQuantile(0.1, 0.0001)
	if err := lo.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0}}
	pm, ph, pl := med.Predict(probe)[0], hi.Predict(probe)[0], lo.Predict(probe)[0]
	if !(pl < pm && pm < ph) {
		t.Errorf("quantile ordering violated: q10=%v q50=%v q90=%v", pl, pm, ph)
	}
	if math.Abs(pm) > 0.4 {
		t.Errorf("median at x=0 is %v, want ≈ 0", pm)
	}
	// Empirical coverage of the q90 line.
	above := 0
	for i := range x {
		if y[i] <= hi.Predict(x[i : i+1])[0] {
			above++
		}
	}
	cov := float64(above) / float64(n)
	if cov < 0.8 || cov > 0.98 {
		t.Errorf("q90 coverage = %v, want ≈ 0.9", cov)
	}
}

func TestLogisticRegressionLearnsSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 400
	x := make([][]float64, n)
	y := make([]string, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		if x[i][0]+x[i][1] > 0 {
			y[i] = "pos"
		} else {
			y[i] = "neg"
		}
	}
	clf := NewLogisticRegression(10)
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := argmaxLabels(clf.PredictProba(x))
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Errorf("logistic accuracy = %v", acc)
	}
}

func TestLogisticRegressionMulticlassProba(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 600
	x := make([][]float64, n)
	y := make([]string, n)
	classes := []string{"a", "b", "c"}
	for i := range x {
		c := i % 3
		x[i] = []float64{float64(c)*3 + rng.NormFloat64()*0.3, rng.NormFloat64()}
		y[i] = classes[c]
	}
	clf := NewLogisticRegression(10)
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probas := clf.PredictProba(x[:5])
	for _, dist := range probas {
		var s float64
		for _, p := range dist {
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of range", p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", s)
		}
		if len(dist) != 3 {
			t.Fatalf("want 3 classes in dist, got %d", len(dist))
		}
	}
	pred := argmaxLabels(clf.PredictProba(x))
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Errorf("multiclass accuracy = %v", acc)
	}
}

func TestEmptyFitErrors(t *testing.T) {
	models := []model.Regressor{
		NewLasso(0.1, SelectionCyclic),
		NewElasticNet(0.1, 0.5, SelectionCyclic),
		NewElasticNetCV(0.5, SelectionCyclic),
		NewLinearSVR(1, 0.1),
		NewHuber(1.35, 0.001),
		NewQuantile(0.5, 0.001),
	}
	for _, m := range models {
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%T accepted empty training set", m)
		}
	}
	clf := NewLogisticRegression(1)
	if err := clf.Fit(nil, nil); err == nil {
		t.Error("logistic accepted empty training set")
	}
}

// TestRaggedRowsError: every fit rejects a design whose rows differ in
// length, whether a row is short (which used to bias the scaler's
// means silently) or long (which used to panic with an index error),
// and wherever the row sits — the last row lands in ElasticNetCV's
// final validation block.
func TestRaggedRowsError(t *testing.T) {
	fits := []struct {
		name string
		fit  func(x [][]float64, y []float64) error
	}{
		{"Lasso", func(x [][]float64, y []float64) error { return NewLasso(0.1, SelectionCyclic).Fit(x, y) }},
		{"ElasticNet", func(x [][]float64, y []float64) error { return NewElasticNet(0.1, 0.5, SelectionRandom).Fit(x, y) }},
		{"ElasticNetCV", func(x [][]float64, y []float64) error { return NewElasticNetCV(0.5, SelectionCyclic).Fit(x, y) }},
		{"Huber", func(x [][]float64, y []float64) error { return NewHuber(1.35, 0.001).Fit(x, y) }},
		{"Quantile", func(x [][]float64, y []float64) error { return NewQuantile(0.5, 0.001).Fit(x, y) }},
		{"LinearSVR", func(x [][]float64, y []float64) error { return NewLinearSVR(1, 0.1).Fit(x, y) }},
		{"Logistic", func(x [][]float64, y []float64) error {
			labels := make([]string, len(y))
			for i, v := range y {
				labels[i] = "lo"
				if v > 5 {
					labels[i] = "hi"
				}
			}
			return NewLogisticRegression(1).Fit(x, labels)
		}},
	}
	for _, tc := range []struct {
		name   string
		row, p int
	}{
		{"short-middle", 7, 2},
		{"long-middle", 7, 4},
		{"short-last", 39, 2},
		{"long-last", 39, 4},
	} {
		for _, f := range fits {
			x, y := linearData(40, 0.1, 3)
			x[tc.row] = append(x[tc.row][:0:0], make([]float64, tc.p)...)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s/%s: panicked: %v", tc.name, f.name, r)
					}
				}()
				if err := f.fit(x, y); err == nil {
					t.Errorf("%s/%s: ragged design accepted", tc.name, f.name)
				}
			}()
		}
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	cases := []func(){
		func() { NewLasso(0.1, SelectionCyclic).Predict([][]float64{{1}}) },
		func() { NewHuber(1.35, 0.1).Predict([][]float64{{1}}) },
		func() { NewLogisticRegression(1).PredictProba([][]float64{{1}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestConstantFeatureIsHandled(t *testing.T) {
	// A constant feature column must not produce NaN (std clamps to 1).
	x := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	for _, m := range []model.Regressor{
		NewLasso(0.001, SelectionCyclic), NewHuber(1.35, 0.001),
	} {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		for _, p := range m.Predict(x) {
			if math.IsNaN(p) {
				t.Fatalf("%T produced NaN with constant feature", m)
			}
		}
	}
}

func TestRefitResetsState(t *testing.T) {
	x1, y1 := linearData(200, 0.01, 16)
	x2 := make([][]float64, len(x1))
	y2 := make([]float64, len(y1))
	for i := range x1 {
		x2[i] = []float64{x1[i][0], x1[i][1], x1[i][2]}
		y2[i] = -y1[i] // inverted target
	}
	m := NewLasso(0.001, SelectionCyclic)
	if err := m.Fit(x1, y1); err != nil {
		t.Fatal(err)
	}
	p1 := m.Predict(x1[:1])[0]
	if err := m.Fit(x2, y2); err != nil {
		t.Fatal(err)
	}
	p2 := m.Predict(x2[:1])[0]
	if math.Abs(p1+p2) > 0.2 {
		t.Errorf("refit did not flip predictions: %v vs %v", p1, p2)
	}
}

// argmaxLabels picks each row's most probable label, ties going to the
// smallest label.
func argmaxLabels(proba []map[string]float64) []string {
	out := make([]string, len(proba))
	for i, dist := range proba {
		best, bestP := "", -1.0
		for l, p := range dist {
			if p > bestP || (p == bestP && l < best) {
				best, bestP = l, p
			}
		}
		out[i] = best
	}
	return out
}
