package bayesopt

import (
	"math/rand"
	"testing"

	"fedforecaster/internal/search"
)

func BenchmarkGPFitPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, d := 30, 5
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = rng.NormFloat64()
	}
	probe := make([]float64, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := newGP(d)
		if err := g.fit(x, y); err != nil {
			b.Fatal(err)
		}
		for j := range probe {
			probe[j] = rng.Float64()
		}
		g.predict(probe)
	}
}

func BenchmarkOptimizerIteration(b *testing.B) {
	o := New(search.DefaultSpaces(), 1)
	// Pre-load observations so next() exercises the GP path.
	rng := rand.New(rand.NewSource(2))
	for _, s := range search.DefaultSpaces() {
		for k := 0; k < 4; k++ {
			cfg := s.Sample(rng)
			o.observe(cfg, rng.Float64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := o.next()
		o.observe(cfg, rng.Float64())
	}
}
