package linmodel

import (
	"math/rand"
	"testing"

	"fedforecaster/internal/model"
)

// lagDesign lag-embeds an AR(1) series into n rows of p lags with the
// next value as target: strongly correlated columns, like the engine's
// lag features, so coordinate descent needs many sweeps.
func lagDesign(n, p int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n+p)
	for t := 1; t < len(s); t++ {
		s[t] = 0.9*s[t-1] + rng.NormFloat64()
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = s[i+p-1-j]
		}
		x[i] = row
		y[i] = s[i+p]
	}
	return x, y
}

// BenchmarkLinmodelFits prices the coordinate-descent, Huber IRLS and
// Quantile fits at two engine shapes: a chaos-rounds client (414×14)
// and a paper-seq client (132×14), each with Lasso in both selection
// modes, ElasticNetCV (10 alphas, 3 folds), Huber and Quantile. A third
// shape, a batch-wide client (72×15), prices Quantile alone: batch-wide
// is where it weighs most. The two -shared rows price one Lasso and one
// Huber candidate at the chaos shape on a warmed Design, the cost each
// candidate pays after the first on a client's training rows.
func BenchmarkLinmodelFits(b *testing.B) {
	fits := []struct {
		name  string
		model func() model.Regressor
	}{
		{"lasso-cyclic", func() model.Regressor { return NewLasso(0.02, SelectionCyclic) }},
		{"lasso-random", func() model.Regressor {
			m := NewLasso(0.02, SelectionRandom)
			m.Seed = 7
			return m
		}},
		{"encv", func() model.Regressor { return NewElasticNetCV(0.7, SelectionCyclic) }},
		{"huber", func() model.Regressor { return NewHuber(1.35, 0.1) }},
		{"quantile", func() model.Regressor { return NewQuantile(0.5, 1e-3) }},
	}
	shapes := []struct {
		name string
		n, p int
		only string // when set, the one fit priced at this shape
	}{
		{"chaos", 414, 14, ""},
		{"paper", 132, 14, ""},
		{"batch", 72, 15, "quantile"},
	}
	for _, sh := range shapes {
		x, y := lagDesign(sh.n, sh.p, 5)
		for _, f := range fits {
			if sh.only != "" && f.name != sh.only {
				continue
			}
			b.Run("shape="+sh.name+"-"+f.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f.model().Fit(x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	x, y := lagDesign(414, 14, 5)
	d := NewDesign(x, y)
	if _, err := d.state(); err != nil {
		b.Fatal(err)
	}
	shared := []struct {
		name string
		fit  func() error
	}{
		{"lasso", func() error { return NewLasso(0.02, SelectionCyclic).FitDesign(d) }},
		{"huber", func() error { return NewHuber(1.35, 0.1).FitDesign(d) }},
	}
	for _, f := range shared {
		b.Run("shape=chaos-"+f.name+"-shared", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.fit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
