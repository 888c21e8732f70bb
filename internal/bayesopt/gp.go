// Package bayesopt implements the server-side hyper-parameter
// optimizer of Section 4.3: a Gaussian-process surrogate with a Matérn
// 5/2 kernel over each recommended algorithm subspace and an expected-
// improvement acquisition, warm-started from the meta-model's
// recommendations. Losses observed by the optimizer are the *global*
// federated losses aggregated by the server.
package bayesopt

import (
	"math"

	"fedforecaster/internal/linalg"
	"fedforecaster/internal/stats"
)

// gp is a Gaussian-process regressor on [0,1]^d with fixed kernel
// hyper-parameters (adequate for the small observation counts BO sees
// within the paper's time budgets).
type gp struct {
	lengthscale float64
	noise       float64

	x     [][]float64
	yMean float64
	yStd  float64
	chol  *linalg.Matrix
	alpha []float64 // K⁻¹·(y standardized)

	// predict scratch, sized to the observation count at fit time. A gp
	// serves one goroutine (the optimizer's proposal loop), so the
	// buffers are reused across the hundreds of candidate predictions a
	// single proposal makes.
	kStar []float64
	vbuf  []float64
}

func newGP(dim int) *gp {
	// A moderately wide kernel over the unit cube; scale mildly with
	// dimension so distances stay comparable.
	return &gp{lengthscale: 0.3 * math.Sqrt(float64(dim)), noise: 1e-4}
}

// matern52 computes the Matérn 5/2 covariance of two points.
func (g *gp) matern52(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += float64(d * d)
	}
	r := math.Sqrt(d2) / g.lengthscale
	s := float64(math.Sqrt(5) * r)
	return (1 + s + 5*r*r/3) * math.Exp(-s)
}

// fit conditions the GP on observations (x in [0,1]^d, y raw losses).
func (g *gp) fit(x [][]float64, y []float64) error {
	n := len(x)
	g.x = x
	g.yMean = stats.Mean(y)
	g.yStd = stats.StdDev(y)
	if g.yStd < 1e-12 {
		g.yStd = 1
	}
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - g.yMean) / g.yStd
	}
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.matern52(x[i], x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	k.AddScaledIdentity(g.noise)
	chol, err := linalg.Cholesky(k)
	if err != nil {
		// Escalate jitter once before giving up.
		k.AddScaledIdentity(1e-6)
		chol, err = linalg.Cholesky(k)
		if err != nil {
			return err
		}
	}
	g.chol = chol
	g.alpha = linalg.CholeskySolve(chol, ys)
	return nil
}

// predict returns the posterior mean and standard deviation at u (in
// raw loss units).
func (g *gp) predict(u []float64) (mu, sigma float64) {
	n := len(g.x)
	if cap(g.kStar) < n {
		g.kStar = make([]float64, n)
		g.vbuf = make([]float64, n)
	}
	kStar := g.kStar[:n]
	for i := range g.x {
		kStar[i] = g.matern52(u, g.x[i])
	}
	muStd := linalg.Dot(kStar, g.alpha)
	// Variance: k(u,u) − k*ᵀ K⁻¹ k* via triangular solve.
	v := g.vbuf[:n]
	linalg.ForwardSolve(g.chol, v, kStar)
	variance := g.matern52(u, u) - linalg.Dot(v, v)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return float64(muStd*g.yStd) + g.yMean, math.Sqrt(variance) * g.yStd
}

// expectedImprovement computes EI for minimization at posterior
// (mu, sigma) against the incumbent best loss, with exploration margin
// xi.
func expectedImprovement(mu, sigma, best, xi float64) float64 {
	if sigma <= 0 {
		return 0
	}
	imp := best - mu - xi
	z := imp / sigma
	return float64(imp*stats.NormalCDF(z)) + float64(sigma*stats.NormalPDF(z))
}
