package bayesopt

import (
	"math"
	"math/rand"
	"testing"

	"fedforecaster/internal/search"
)

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	x := [][]float64{{0.1}, {0.4}, {0.8}}
	y := []float64{3, -1, 2}
	g := newGP(1)
	if err := g.fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		mu, sigma := g.predict(x[i])
		if math.Abs(mu-y[i]) > 0.15 {
			t.Errorf("posterior mean at train point %d = %v, want ≈ %v", i, mu, y[i])
		}
		if sigma > 0.5 {
			t.Errorf("posterior std at train point = %v, want small", sigma)
		}
	}
	// Far from data the uncertainty grows.
	_, farSigma := g.predict([]float64{10})
	_, nearSigma := g.predict([]float64{0.4})
	if farSigma <= nearSigma {
		t.Errorf("sigma far (%v) not larger than near (%v)", farSigma, nearSigma)
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	// Lower mean → higher EI (minimization).
	hi := expectedImprovement(0.2, 0.1, 1.0, 0)
	lo := expectedImprovement(0.9, 0.1, 1.0, 0)
	if hi <= lo {
		t.Errorf("EI(mu=0.2)=%v not > EI(mu=0.9)=%v", hi, lo)
	}
	// More uncertainty → more EI when mean is at the incumbent.
	wide := expectedImprovement(1.0, 0.5, 1.0, 0)
	narrow := expectedImprovement(1.0, 0.01, 1.0, 0)
	if wide <= narrow {
		t.Errorf("EI(wide)=%v not > EI(narrow)=%v", wide, narrow)
	}
	if expectedImprovement(1, 0, 1, 0) != 0 {
		t.Error("zero sigma should give zero EI")
	}
}

// quadraticSpace is a 1-D test space with a known optimum.
func quadraticSpace() search.Space {
	return search.Space{
		Algorithm: "Quad",
		Params:    []search.Param{{Name: "x", Kind: search.Uniform, Lo: 0, Hi: 1}},
	}
}

func quadLoss(cfg search.Config) float64 {
	x := cfg.Values["x"]
	return (x - 0.73) * (x - 0.73)
}

func TestOptimizerFindsQuadraticMinimum(t *testing.T) {
	o := New([]search.Space{quadraticSpace()}, 1)
	for iter := 0; iter < 25; iter++ {
		cfg := o.next()
		o.observe(cfg, quadLoss(cfg))
	}
	best, loss, ok := o.Best()
	if !ok {
		t.Fatal("no best after 25 observations")
	}
	if math.Abs(best.Values["x"]-0.73) > 0.12 {
		t.Errorf("best x = %v, want ≈ 0.73 (loss %v)", best.Values["x"], loss)
	}
}

func TestOptimizerBeatsRandomSearchOnAverage(t *testing.T) {
	// With equal budgets, BO should reach a lower loss than random
	// search on most seeds of a smooth objective.
	wins := 0
	const trials = 10
	const budget = 18
	for seed := int64(0); seed < trials; seed++ {
		o := New([]search.Space{quadraticSpace()}, seed)
		for i := 0; i < budget; i++ {
			cfg := o.next()
			o.observe(cfg, quadLoss(cfg))
		}
		_, boLoss, _ := o.Best()

		rng := rand.New(rand.NewSource(seed + 1000))
		s := quadraticSpace()
		rsLoss := math.Inf(1)
		for i := 0; i < budget; i++ {
			if l := quadLoss(s.Sample(rng)); l < rsLoss {
				rsLoss = l
			}
		}
		if boLoss <= rsLoss {
			wins++
		}
	}
	if wins < 6 {
		t.Errorf("BO won only %d/%d trials against random search", wins, trials)
	}
}

func TestOptimizerWarmStartEvaluatedFirst(t *testing.T) {
	s := quadraticSpace()
	o := New([]search.Space{s}, 2)
	warm := s.Decode([]float64{0.5})
	o.Warm([]search.Config{warm})
	first := o.next()
	if math.Abs(first.Values["x"]-warm.Values["x"]) > 1e-12 {
		t.Errorf("first proposal = %v, want warm-start %v", first, warm)
	}
}

func TestOptimizerMultiSpace(t *testing.T) {
	// Two spaces: "Good" has a much lower optimum than "Bad". The
	// optimizer should concentrate observations on Good.
	good := search.Space{Algorithm: "Good", Params: []search.Param{{Name: "x", Kind: search.Uniform, Lo: 0, Hi: 1}}}
	bad := search.Space{Algorithm: "Bad", Params: []search.Param{{Name: "x", Kind: search.Uniform, Lo: 0, Hi: 1}}}
	loss := func(cfg search.Config) float64 {
		x := cfg.Values["x"]
		if cfg.Algorithm == "Good" {
			return (x - 0.5) * (x - 0.5)
		}
		return 5 + x
	}
	o := New([]search.Space{good, bad}, 3)
	goodCount := 0
	for iter := 0; iter < 30; iter++ {
		cfg := o.next()
		if cfg.Algorithm == "Good" {
			goodCount++
		}
		o.observe(cfg, loss(cfg))
	}
	if goodCount < 18 {
		t.Errorf("only %d/30 proposals in the better space", goodCount)
	}
	best, _, _ := o.Best()
	if best.Algorithm != "Good" {
		t.Errorf("best algorithm = %s", best.Algorithm)
	}
}

func TestObserveNaNLossDoesNotPoison(t *testing.T) {
	o := New([]search.Space{quadraticSpace()}, 4)
	cfg := o.next()
	o.observe(cfg, math.NaN())
	for i := 0; i < 10; i++ {
		c := o.next()
		o.observe(c, quadLoss(c))
	}
	_, loss, ok := o.Best()
	if !ok || math.IsNaN(loss) {
		t.Fatalf("optimizer poisoned by NaN: %v %v", loss, ok)
	}
}

func TestBestBeforeObservations(t *testing.T) {
	o := New([]search.Space{quadraticSpace()}, 5)
	if _, _, ok := o.Best(); ok {
		t.Error("Best ok before any observation")
	}
}

func TestObserveUnknownAlgorithmIgnored(t *testing.T) {
	o := New([]search.Space{quadraticSpace()}, 6)
	o.observe(search.Config{Algorithm: "Ghost", Values: map[string]float64{"x": 0}}, 1)
	if o.NumObservations() != 0 {
		t.Error("unknown-space observation counted")
	}
}
