package ensemble

import (
	"math/rand"
	"testing"
)

func BenchmarkRandomForestFit(b *testing.B) {
	x, y := friedman1(500, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewRandomForestRegressor(ForestOptions{NumTrees: 30, MaxDepth: 8, Seed: int64(i)})
		if err := f.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXGBFit(b *testing.B) {
	x, y := friedman1(500, 0.5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewXGBRegressor(XGBOptions{NumTrees: 20, MaxDepth: 4, Seed: int64(i)})
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLGBMClassifierFit(b *testing.B) {
	x, y := threeClassData(500, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewLGBMClassifier(LGBMOptions{NumTrees: 15, NumLeaves: 15})
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCatBoostClassifierFit(b *testing.B) {
	x, y := threeClassData(500, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewCatBoostClassifier(CatBoostOptions{NumTrees: 15, Depth: 4})
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	x, y := friedman1(500, 0.5, 5)
	f := NewRandomForestRegressor(ForestOptions{NumTrees: 50, MaxDepth: 8, Seed: 6})
	if err := f.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(x[:100])
	}
}

// tieHeavy draws an n×p design of integer-valued columns with 3 to 26
// levels, like the calendar and rounded-lag features the engine builds,
// so nearly every sorted split scan walks long runs of ties. The target
// depends on the first three columns plus noise.
func tieHeavy(n, p int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = float64(rng.Intn(3 + (7*j)%24))
		}
		x[i] = row
		y[i] = row[0] - 0.3*row[1] + 0.1*row[2]*row[2] + rng.NormFloat64()
	}
	return x, y
}

// BenchmarkTreeFits prices the tree core at three engine shapes on
// tie-heavy columns: the per-client random-forest importance fit of the
// feature-selection round (30 trees, depth 8, 198×19 like a paper-seq
// client), an XGB candidate fit (20 trees, depth 6, subsample 0.7,
// 55×15 like a batch-wide client), and graph-cv's XGB arm (13 trees,
// depth 6, subsample 0.55, 112×16).
func BenchmarkTreeFits(b *testing.B) {
	b.Run("shape=rf-importance", func(b *testing.B) {
		x, y := tieHeavy(198, 19, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := NewRandomForestRegressor(ForestOptions{NumTrees: 30, MaxDepth: 8, Seed: 3})
			if err := f.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shape=xgb", func(b *testing.B) {
		x, y := tieHeavy(55, 15, 2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewXGBRegressor(XGBOptions{NumTrees: 20, MaxDepth: 6, Subsample: 0.7, Seed: 4})
			if err := m.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shape=xgb-graph-cv", func(b *testing.B) {
		x, y := tieHeavy(112, 16, 5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewXGBRegressor(XGBOptions{NumTrees: 13, MaxDepth: 6, Subsample: 0.55, Seed: 6})
			if err := m.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}
