package ensemble

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedforecaster/internal/model"
)

// friedman1 is the classic nonlinear regression benchmark surface.
func friedman1(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = 10*math.Sin(math.Pi*row[0]*row[1]) + 20*(row[2]-0.5)*(row[2]-0.5) +
			10*row[3] + 5*row[4] + noise*rng.NormFloat64()
	}
	return x, y
}

// threeClassData produces 3 Gaussian blobs separable on two features.
func threeClassData(n int, seed int64) ([][]float64, []string) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]float64{{0, 0}, {4, 0}, {2, 4}}
	labels := []string{"red", "green", "blue"}
	x := make([][]float64, n)
	y := make([]string, n)
	for i := range x {
		c := i % 3
		x[i] = []float64{
			centers[c][0] + rng.NormFloat64()*0.6,
			centers[c][1] + rng.NormFloat64()*0.6,
			rng.NormFloat64(), // distractor
		}
		y[i] = labels[c]
	}
	return x, y
}

func accuracy(pred, truth []string) float64 {
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

func TestRandomForestRegressorFriedman(t *testing.T) {
	x, y := friedman1(600, 0.5, 1)
	f := NewRandomForestRegressor(ForestOptions{NumTrees: 50, MaxDepth: 10, Seed: 1})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := friedman1(200, 0, 2)
	mse := model.MSE(f.Predict(xt), yt)
	// Baseline: variance of the target is ≈ 24; forest must do far better.
	if mse > 8 {
		t.Errorf("forest test MSE = %v, want < 8", mse)
	}
}

func TestRandomForestRegressorImportances(t *testing.T) {
	x, y := friedman1(500, 0.1, 3)
	f := NewRandomForestRegressor(ForestOptions{NumTrees: 40, MaxDepth: 8, Seed: 2})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportances()
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("importances sum to %v", sum)
	}
	// x3 (coef 10) matters more than x4 (coef 5).
	if imp[3] < imp[4] {
		t.Errorf("importance ordering wrong: %v", imp)
	}
}

func TestRandomForestClassifier(t *testing.T) {
	x, y := threeClassData(600, 4)
	f := NewRandomForestClassifier(ForestOptions{NumTrees: 40, MaxDepth: 8, Seed: 3})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := threeClassData(300, 5)
	if acc := accuracy(argmaxLabels(f.PredictProba(xt)), yt); acc < 0.95 {
		t.Errorf("forest accuracy = %v", acc)
	}
	for _, dist := range f.PredictProba(xt[:5]) {
		var s float64
		for _, p := range dist {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestExtraTreesClassifier(t *testing.T) {
	x, y := threeClassData(600, 6)
	f := NewExtraTreesClassifier(ForestOptions{NumTrees: 40, MaxDepth: 10, Seed: 4})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := threeClassData(300, 7)
	if acc := accuracy(argmaxLabels(f.PredictProba(xt)), yt); acc < 0.92 {
		t.Errorf("extra trees accuracy = %v", acc)
	}
}

func TestGradientBoostingClassifier(t *testing.T) {
	x, y := threeClassData(600, 12)
	g := NewGradientBoostingClassifier(GBMOptions{NumTrees: 30, MaxDepth: 3, LearningRate: 0.2})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := threeClassData(300, 13)
	if acc := accuracy(argmaxLabels(g.PredictProba(xt)), yt); acc < 0.93 {
		t.Errorf("GBC accuracy = %v", acc)
	}
	for _, dist := range g.PredictProba(xt[:3]) {
		var s float64
		for _, p := range dist {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestXGBRegressorFriedman(t *testing.T) {
	x, y := friedman1(600, 0.5, 14)
	m := NewXGBRegressor(XGBOptions{NumTrees: 80, MaxDepth: 4, LearningRate: 0.15, Lambda: 1, Seed: 8})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := friedman1(200, 0, 15)
	if mse := model.MSE(m.Predict(xt), yt); mse > 6 {
		t.Errorf("XGB test MSE = %v", mse)
	}
}

func TestXGBRegressorSubsample(t *testing.T) {
	x, y := friedman1(500, 0.5, 16)
	m := NewXGBRegressor(XGBOptions{NumTrees: 60, MaxDepth: 4, LearningRate: 0.15, Subsample: 0.5, Seed: 9})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := friedman1(200, 0, 17)
	if mse := model.MSE(m.Predict(xt), yt); mse > 8 {
		t.Errorf("subsampled XGB test MSE = %v", mse)
	}
}

// TestSubsampleMatchesPerm checks that the in-place subsample draws the
// rows rng.Perm(n)[:m] would, stage after stage, and leaves the rng in
// the same state, so a booster's draws and its later stages' seeds
// match the allocating draw it replaced.
func TestSubsampleMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 55, 112} {
		for _, frac := range []float64{0.05, 0.55, 0.7, 0.999, 1} {
			got, want := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
			buf := make([]int, n)
			for stage := 0; stage < 4; stage++ {
				rows := subsample(buf, frac, got)
				ref := make([]int, n)
				for i := range ref {
					ref[i] = i
				}
				if frac < 1 {
					ref = want.Perm(n)[:len(rows)]
				}
				m := min(n, max(2, int(frac*float64(n)+0.5)))
				if len(rows) != m || !slices.Equal(rows, ref[:len(rows)]) {
					t.Fatalf("n %d frac %v stage %d: rows %v, want %v", n, frac, stage, rows, ref[:m])
				}
			}
			if got.Int63() != want.Int63() {
				t.Errorf("n %d frac %v: rng state diverged from rng.Perm's", n, frac)
			}
		}
	}
}

func TestXGBRegressorLambdaRegularizes(t *testing.T) {
	x, y := friedman1(200, 2.0, 18)
	// Measure the spread of predictions: heavy lambda shrinks the model
	// toward the base score.
	loose := NewXGBRegressor(XGBOptions{NumTrees: 20, MaxDepth: 4, Lambda: 0.0001, Seed: 10})
	tight := NewXGBRegressor(XGBOptions{NumTrees: 20, MaxDepth: 4, Lambda: 10000, Seed: 10})
	if err := loose.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := tight.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	spread := func(pred []float64) float64 {
		lo, hi := pred[0], pred[0]
		for _, v := range pred {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	if spread(tight.Predict(x)) >= spread(loose.Predict(x)) {
		t.Error("large reg_lambda did not shrink prediction spread")
	}
}

func TestXGBClassifier(t *testing.T) {
	x, y := threeClassData(600, 19)
	m := NewXGBClassifier(XGBOptions{NumTrees: 25, MaxDepth: 4, LearningRate: 0.3, Seed: 11})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := threeClassData(300, 20)
	if acc := accuracy(argmaxLabels(m.PredictProba(xt)), yt); acc < 0.93 {
		t.Errorf("XGB classifier accuracy = %v", acc)
	}
}

func TestLGBMClassifier(t *testing.T) {
	x, y := threeClassData(600, 21)
	m := NewLGBMClassifier(LGBMOptions{NumTrees: 25, NumLeaves: 15, LearningRate: 0.2})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := threeClassData(300, 22)
	if acc := accuracy(argmaxLabels(m.PredictProba(xt)), yt); acc < 0.92 {
		t.Errorf("LGBM accuracy = %v", acc)
	}
	for _, dist := range m.PredictProba(xt[:3]) {
		var s float64
		for _, p := range dist {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestCatBoostClassifier(t *testing.T) {
	x, y := threeClassData(600, 23)
	m := NewCatBoostClassifier(CatBoostOptions{NumTrees: 30, Depth: 4, LearningRate: 0.2})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := threeClassData(300, 24)
	if acc := accuracy(argmaxLabels(m.PredictProba(xt)), yt); acc < 0.92 {
		t.Errorf("CatBoost accuracy = %v", acc)
	}
}

func TestBinnerRoundTrip(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}}
	b := newBinner(x, 4)
	if got := b.numBins(0); got < 2 || got > 4 {
		t.Fatalf("numBins = %d", got)
	}
	// Monotone: larger values map to equal-or-larger bins.
	prev := uint8(0)
	for _, row := range x {
		bin := b.binValue(0, row[0])
		if bin < prev {
			t.Fatalf("binning not monotone")
		}
		prev = bin
	}
	// Out-of-range values clamp to the end bins.
	if b.binValue(0, -100) != 0 {
		t.Error("low outlier not in first bin")
	}
	if int(b.binValue(0, 100)) != b.numBins(0)-1 {
		t.Error("high outlier not in last bin")
	}
}

func TestBinnerConstantFeature(t *testing.T) {
	x := [][]float64{{5}, {5}, {5}}
	b := newBinner(x, 8)
	if b.numBins(0) != 1 {
		t.Errorf("constant feature has %d bins, want 1", b.numBins(0))
	}
}

func TestObliviousTreePredictIndexing(t *testing.T) {
	tr := &obliviousTree{
		features:   []int{0, 1},
		thresholds: []float64{0.5, 0.5},
		leaves:     []float64{10, 20, 30, 40}, // idx = bit0(x0>0.5) | bit1(x1>0.5)<<1
	}
	cases := []struct {
		row  []float64
		want float64
	}{
		{[]float64{0, 0}, 10},
		{[]float64{1, 0}, 20},
		{[]float64{0, 1}, 30},
		{[]float64{1, 1}, 40},
	}
	for _, c := range cases {
		if got := tr.PredictOne(c.row); got != c.want {
			t.Errorf("PredictOne(%v) = %v, want %v", c.row, got, c.want)
		}
	}
}

func TestEnsembleEmptyFit(t *testing.T) {
	if err := NewRandomForestRegressor(ForestOptions{}).Fit(nil, nil); err == nil {
		t.Error("RF regressor accepted empty fit")
	}
	if err := NewRandomForestClassifier(ForestOptions{}).Fit(nil, nil); err == nil {
		t.Error("RF classifier accepted empty fit")
	}
	if err := NewXGBRegressor(XGBOptions{}).Fit(nil, nil); err == nil {
		t.Error("XGB accepted empty fit")
	}
	if err := NewLGBMClassifier(LGBMOptions{}).Fit(nil, nil); err == nil {
		t.Error("LGBM accepted empty fit")
	}
	if err := NewCatBoostClassifier(CatBoostOptions{}).Fit(nil, nil); err == nil {
		t.Error("CatBoost accepted empty fit")
	}
	if err := NewGradientBoostingClassifier(GBMOptions{}).Fit(nil, nil); err == nil {
		t.Error("GBM accepted empty fit")
	}
	if err := NewXGBClassifier(XGBOptions{}).Fit(nil, nil); err == nil {
		t.Error("XGB classifier accepted empty fit")
	}
	defer func() {
		if recover() == nil {
			t.Error("boosted classifier predicted before Fit")
		}
	}()
	NewXGBClassifier(XGBOptions{}).PredictProba([][]float64{{0}})
}

func TestEnsembleDeterminismWithSeed(t *testing.T) {
	x, y := friedman1(300, 0.5, 25)
	a := NewRandomForestRegressor(ForestOptions{NumTrees: 10, MaxDepth: 6, Seed: 99})
	b := NewRandomForestRegressor(ForestOptions{NumTrees: 10, MaxDepth: 6, Seed: 99})
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pa := a.Predict(x[:20])
	pb := b.Predict(x[:20])
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same-seed forests disagree")
		}
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
