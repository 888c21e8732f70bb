package linmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// residualProblem is the residual-form design that cdProblem's Gram
// form replaced: the standardized features column-major (column j is
// cols[j*n:(j+1)*n]), the centred target and the floored column norms.
type residualProblem struct {
	n, p    int
	cols    []float64
	yc      []float64
	colNorm []float64
}

func newResidualProblem(t testing.TB, x [][]float64, y []float64) *residualProblem {
	t.Helper()
	var sc scaler
	var ct centerer
	if err := sc.fit(x); err != nil {
		t.Fatal(err)
	}
	n, p := len(x), len(sc.mean)
	rp := &residualProblem{n: n, p: p, cols: make([]float64, n*p), yc: ct.fit(y), colNorm: make([]float64, p)}
	for i, row := range x {
		for j, v := range row {
			rp.cols[j*n+i] = (v - sc.mean[j]) / sc.std[j]
		}
	}
	for j := range rp.colNorm {
		var s float64
		for _, v := range rp.col(j) {
			s += v * v
		}
		s /= float64(n)
		if s < 1e-12 {
			s = 1e-12
		}
		rp.colNorm[j] = s
	}
	return rp
}

func (rp *residualProblem) col(j int) []float64 { return rp.cols[j*rp.n : (j+1)*rp.n] }

// solveResidual is the residual-form coordinate descent that
// cdProblem.solve replaced, unchanged: it keeps resid = yc − Zw and
// pays an n-long dot product per coordinate, fusing each residual
// update into the next coordinate's dot product. It is the oracle the
// Gram form is checked against, and it still reproduces the digests
// the package was pinned to before the Gram form.
func (rp *residualProblem) solveResidual(alpha, l1Ratio float64, sel SelectionRule, maxIter int, tol float64, seed int64) []float64 {
	nf := float64(rp.n)
	w := make([]float64, rp.p)
	resid := append([]float64(nil), rp.yc...)
	l1 := alpha * l1Ratio
	l2 := alpha * (1 - l1Ratio)
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	order := make([]int, rp.p)
	for j := range order {
		order[j] = j
	}
	var rng *rand.Rand
	if sel == SelectionRandom {
		rng = rand.New(rand.NewSource(seed))
	}
	for iter := 0; iter < maxIter; iter++ {
		if rng != nil {
			rng.Shuffle(rp.p, func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		var maxDelta float64
		var pending float64
		havePending := false
		for k, j := range order {
			col := rp.col(j)
			rho := pending
			if !havePending {
				rho = dot(col, resid)
			}
			havePending = false
			rho = rho/nf + rp.colNorm[j]*w[j]
			var newW float64
			if rho > l1 {
				newW = (rho - l1) / (rp.colNorm[j] + l2)
			} else if rho < -l1 {
				newW = (rho + l1) / (rp.colNorm[j] + l2)
			}
			if d := newW - w[j]; d != 0 {
				if k+1 < len(order) {
					pending, havePending = subDot(resid, d, col, rp.col(order[k+1])), true
				} else {
					sub(resid, d, col)
				}
				w[j] = newW
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return w
}

// dot returns col·r.
func dot(col, r []float64) float64 {
	r = r[:len(col)]
	var rho float64
	for i, v := range col {
		rho += v * r[i]
	}
	return rho
}

// sub subtracts d·col from r.
func sub(r []float64, d float64, col []float64) {
	r = r[:len(col)]
	for i, v := range col {
		r[i] -= d * v
	}
}

// subDot subtracts d·col from r and returns next·r over the updated r,
// in one pass, with the bits of sub followed by dot(next, r).
func subDot(r []float64, d float64, col, next []float64) float64 {
	r = r[:len(col)]
	next = next[:len(col)]
	var rho float64
	for i, v := range col {
		r[i] -= d * v
		rho += next[i] * r[i]
	}
	return rho
}

// TestResidualReferenceReproducesPreGramPins shows the reference is the
// solver the package shipped before the Gram form: on the Lasso and
// ElasticNet cases of TestGoldenLinmodelDigests it reproduces, bit for
// bit, the digests those cases were pinned to before the re-pin.
func TestResidualReferenceReproducesPreGramPins(t *testing.T) {
	x, y := goldenData(180, 7, 0, 51)
	rp := newResidualProblem(t, x, y)
	var ct centerer
	ct.fit(y)
	cases := []struct {
		name, want string
		alpha, l1  float64
		sel        SelectionRule
		seed       int64
	}{
		{"lasso/cyclic", "4a4c07fa7b03da855511d20e338f992ad42eb96674a533b9f9677935ac258d31", 0.02, 1, SelectionCyclic, 0},
		{"lasso/random", "07e073b3b3713280ac23c47f111e0c78d7de82e10e7bfd9b90872d5ceddebf94", 0.005, 1, SelectionRandom, 17},
		{"elasticnet/clamped-l1ratio", "b5ba04aeee52a9a93509f1ef7b86f659ceceff1e3dba8cf2ac1732454e4da392", 0.03, clampL1Ratio(4.5), SelectionCyclic, 0},
		{"elasticnet/random-mixed", "84a57360774ae977b5f77e6bc4e99a42e1056857b51f100e3b1b990a24981db5", 0.01, 0.3, SelectionRandom, 23},
	}
	for _, c := range cases {
		w := rp.solveResidual(c.alpha, c.l1, c.sel, defaultMaxIter, defaultTol, c.seed)
		if got := fitDigest(w, ct.mean); got != c.want {
			t.Errorf("%s: reference digest %s, want the pre-Gram pin %s", c.name, got, c.want)
		}
	}
}

// randomDesign draws an n×p design of correlated Gaussian columns and a
// sparse linear target. With degenerate set, column 0 is exactly
// constant and column 1 varies by about 1e-13, below the scaler's
// unit-variance floor, so its Gram diagonal sits under colNorm's 1e-12
// floor while it still correlates with the target.
func randomDesign(rng *rand.Rand, n, p int, degenerate bool) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		base := rng.NormFloat64()
		for j := range row {
			row[j] = rng.Float64()*base + rng.NormFloat64()*(1+float64(j%3))
		}
		y[i] = 2*row[0] - row[p-1] + 0.3*rng.NormFloat64()
		if degenerate && p >= 2 {
			row[0] = 3.7
			u := rng.NormFloat64()
			row[1] = 1 + 1e-13*u
			y[i] += u
		}
		x[i] = row
	}
	return x, y
}

// TestGramMatchesResidualAndKKT is the Gram solver's property test.
// Over random designs — with constant and sub-floor columns, with
// p ≥ n, under both selection rules, at l1 ratios 0, 0.5 and 1 and
// penalties from none to strong — it checks that
//
//   - the Gram and residual solvers agree to 1e-9·(1 + ‖w‖∞): they are
//     the same iteration, so only rounding may separate them;
//   - when the Gram solve stopped on its own (one more allowed sweep
//     changes nothing), its solution meets the elastic-net KKT
//     conditions, recomputed from the residual: the last sweep moved
//     every coordinate by less than tol, so coordinate j's optimality
//     gap is below tol·Σ_k |gram_jk|.
func TestGramMatchesResidualAndKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const maxIter, tol = 2000, 1e-6
	type shape struct {
		n, p       int
		degenerate bool
	}
	shapes := []shape{{40, 6, false}, {60, 12, true}, {25, 5, true}, {12, 12, false}, {8, 20, true}, {15, 25, false}}
	checked, kkt := 0, 0
	for si, sh := range shapes {
		x, y := randomDesign(rng, sh.n, sh.p, sh.degenerate)
		st, err := NewDesign(x, y).state()
		if err != nil {
			t.Fatal(err)
		}
		cd := &st.cd
		rp := newResidualProblem(t, x, y)
		for _, l1Ratio := range []float64{0, 0.5, 1} {
			for _, alpha := range []float64{0, 1e-12, 0.01, 0.3} {
				for _, sel := range []SelectionRule{SelectionCyclic, SelectionRandom} {
					name := fmt.Sprintf("design%d(n=%d,p=%d)/l1=%g/alpha=%g/%s", si, sh.n, sh.p, l1Ratio, alpha, sel)
					seed := int64(si*7 + 3)
					orders := newSweepOrders(sel, cd.p, seed, maxIter+1)
					got := cd.solve(alpha, l1Ratio, maxIter, tol, &orders)
					want := rp.solveResidual(alpha, l1Ratio, sel, maxIter, tol, seed)
					var scale float64
					for _, v := range want {
						scale = max(scale, math.Abs(v))
					}
					for j := range got {
						if d := math.Abs(got[j] - want[j]); !(d <= 1e-9*(1+scale)) {
							t.Errorf("%s: w[%d] = %v (Gram), %v (residual)", name, j, got[j], want[j])
						}
					}
					checked++
					if more := cd.solve(alpha, l1Ratio, maxIter+1, tol, &orders); !equalBits(more, got) {
						continue // stopped at maxIter, not on tol
					}
					kkt++
					checkKKT(t, name, rp, cd, got, alpha, l1Ratio, tol)
				}
			}
		}
	}
	t.Logf("%d solves agree; %d stopped on tol and meet KKT", checked, kkt)
	if kkt < checked/2 {
		t.Errorf("only %d of %d solves converged; the KKT check barely ran", kkt, checked)
	}
}

// checkKKT recomputes the correlations c = (1/n)·Zᵀ(yc − Zw) from the
// residual and checks the elastic-net optimality conditions for w:
// c_j − l2·w_j = l1·sign(w_j) where w_j ≠ 0, and |c_j| ≤ l1 where
// w_j = 0, each to within tol·Σ_k |gram_jk|.
func checkKKT(t *testing.T, name string, rp *residualProblem, cd *cdProblem, w []float64, alpha, l1Ratio, tol float64) {
	t.Helper()
	l1, l2 := alpha*l1Ratio, alpha*(1-l1Ratio)
	resid := append([]float64(nil), rp.yc...)
	for j, wj := range w {
		sub(resid, wj, rp.col(j))
	}
	for j, wj := range w {
		c := dot(rp.col(j), resid) / float64(rp.n)
		var coupling float64
		for _, g := range cd.gram[j*cd.p : (j+1)*cd.p] {
			coupling += math.Abs(g)
		}
		slack := tol*coupling + 1e-12
		var gap float64
		switch {
		case wj > 0:
			gap = math.Abs(c - l2*wj - l1)
		case wj < 0:
			gap = math.Abs(c - l2*wj + l1)
		default:
			gap = math.Abs(c) - l1
		}
		if !(gap <= slack) {
			t.Errorf("%s: KKT gap %g at w[%d] = %v exceeds %g", name, gap, j, wj, slack)
		}
	}
}

func equalBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSweepOrdersReplay checks the update orders a solve reads against
// the generator they stand for: 0…p−1 shuffled once per sweep by a
// fresh rand.NewSource(seed), the way every solve drew them before
// streams were shared. One replaying stream serves a run of solves of
// uneven lengths, longer and shorter than the orders already drawn,
// with too little room for them all; each solve also gets a stream of
// its own without replay. Every sweep of every solve must read the
// reference order.
func TestSweepOrdersReplay(t *testing.T) {
	for _, p := range []int{1, 2, 7, 15, 40, 300} {
		for _, seed := range []int64{0, 17, -3} {
			replay := newSweepOrders(SelectionRandom, p, seed, 4) // grows past its room
			cyclic := newSweepOrders(SelectionCyclic, p, seed, 4)
			for solve, sweeps := range []int{5, 3, 9, 1, 12, 9} {
				single := newSweepOrders(SelectionRandom, p, seed, 0)
				rng := rand.New(rand.NewSource(seed))
				want := make([]int, p)
				for j := range want {
					want[j] = j
				}
				for k := 0; k < sweeps; k++ {
					for j, got := range cyclic.sweep(k) {
						if int(got) != j {
							t.Fatalf("p=%d: cyclic sweep %d has %d at %d", p, k, got, j)
						}
					}
					rng.Shuffle(p, func(a, b int) { want[a], want[b] = want[b], want[a] })
					for _, s := range []struct {
						name    string
						sweepOf *sweepOrders
					}{{"replay", &replay}, {"single", &single}} {
						name, got := s.name, s.sweepOf.sweep(k)
						if len(got) != p {
							t.Fatalf("p=%d seed=%d %s: solve %d sweep %d has %d coordinates", p, seed, name, solve, k, len(got))
						}
						for j := range want {
							if int(got[j]) != want[j] {
								t.Fatalf("p=%d seed=%d %s: solve %d sweep %d = %v, want %v", p, seed, name, solve, k, got, want)
							}
						}
					}
				}
			}
		}
	}
}
