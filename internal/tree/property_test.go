package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: a regression tree's predictions always lie within the
// range of the training targets (trees average leaf members).
func TestRegressionPredictionBoundedProperty(t *testing.T) {
	f := func(rawX []float64, rawY []float64) bool {
		n := len(rawX)
		if len(rawY) < n {
			n = len(rawY)
		}
		if n < 2 {
			return true
		}
		x := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			xv := rawX[i]
			yv := rawY[i]
			if math.IsNaN(xv) || math.IsInf(xv, 0) {
				xv = 0
			}
			if math.IsNaN(yv) || math.IsInf(yv, 0) {
				yv = 0
			}
			x[i] = []float64{math.Mod(xv, 1e6)}
			y[i] = math.Mod(yv, 1e6)
			if y[i] < lo {
				lo = y[i]
			}
			if y[i] > hi {
				hi = y[i]
			}
		}
		tr := NewRegressor(Options{MaxDepth: 5})
		if err := tr.Fit(x, y); err != nil {
			return false
		}
		for _, probe := range []float64{-1e9, 0, 1e9} {
			p := tr.PredictOne([]float64{probe})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: feature importances are non-negative and sum to 1 (or all
// zeros for stumps), for both tree kinds.
func TestImportanceSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(100)
		p := 1 + rng.Intn(4)
		x := make([][]float64, n)
		y := make([]float64, n)
		yc := make([]int, n)
		for i := range x {
			row := make([]float64, p)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			x[i] = row
			y[i] = rng.NormFloat64()
			yc[i] = rng.Intn(3)
		}
		tr := NewRegressor(Options{MaxDepth: 4, Seed: int64(trial)})
		if err := tr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		checkSimplex(t, tr.FeatureImportances())
		cl := NewClassifier(Options{MaxDepth: 4, Seed: int64(trial)}, 3)
		if err := cl.Fit(x, yc); err != nil {
			t.Fatal(err)
		}
		checkSimplex(t, cl.FeatureImportances())
	}
}

func checkSimplex(t *testing.T, imp []float64) {
	t.Helper()
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
}

// Property: deeper trees never fit the training data worse (training
// MSE is monotone non-increasing in depth for exact-split trees).
func TestDepthMonotoneTrainingFitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 100
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64() * 10}
			y[i] = math.Sin(x[i][0]) + 0.2*rng.NormFloat64()
		}
		prev := math.Inf(1)
		for depth := 1; depth <= 6; depth++ {
			tr := NewRegressor(Options{MaxDepth: depth})
			if err := tr.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			var mse float64
			for i := range x {
				d := tr.PredictOne(x[i]) - y[i]
				mse += d * d
			}
			mse /= float64(n)
			if mse > prev+1e-9 {
				t.Fatalf("trial %d: depth %d train MSE %v worse than depth %d (%v)",
					trial, depth, mse, depth-1, prev)
			}
			prev = mse
		}
	}
}

// Property: GradTree leaf weights scale inversely with lambda — for
// any fitted stump, |leaf(λ=0)| ≥ |leaf(λ=10)| ≥ |leaf(λ=1000)|.
func TestGradTreeLambdaMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 40
		x := make([][]float64, n)
		g := make([]float64, n)
		h := make([]float64, n)
		idx := make([]int, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64()}
			g[i] = rng.NormFloat64()
			h[i] = 1
			idx[i] = i
		}
		var prev float64 = math.Inf(1)
		for _, lambda := range []float64{0, 10, 1000} {
			// Gamma forces a stump so the compared leaf is always the
			// root −G/(H+λ), which is exactly monotone in λ. (With
			// splits allowed, different λ values choose different
			// structures and the pointwise property does not hold.)
			gt := &GradTree{MaxDepth: 1, Lambda: lambda, Gamma: 1e12}
			if err := gt.FitGrad(Presort(x), g, h, idx); err != nil {
				t.Fatal(err)
			}
			mag := math.Abs(gt.PredictOne([]float64{0}))
			if mag > prev+1e-9 {
				t.Fatalf("trial %d: |leaf| grew with lambda: %v → %v", trial, prev, mag)
			}
			prev = mag
		}
	}
}
