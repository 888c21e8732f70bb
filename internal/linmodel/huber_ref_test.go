package linmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedforecaster/internal/linalg"
)

// irlsRef is the IRLS loop that irls replaced, unchanged but for the
// solve's signature: every iteration clears XᵀWX and XᵀWy and
// accumulates all n rows with their weights. It is the oracle irls is
// checked against, and it still reproduces the Huber digests the
// package was pinned to before the unit-weight base.
func (m *HuberRegressor) irlsRef(xs [][]float64, yc []float64) (w, weights []float64, err error) {
	n, p := len(xs), len(xs[0])
	w = make([]float64, p)
	weights = make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	xtx := linalg.NewMatrix(p, p)
	xty := make([]float64, p)
	abs := make([]float64, n)
	scratch := make([]float64, n)
	for iter := 0; iter < huberMaxIter; iter++ {
		clear(xtx.Data)
		clear(xty)
		for i, row := range xs {
			addOuter(xtx.Data, xty, row, weights[i], yc[i])
		}
		mirrorUpper(xtx.Data, p)
		for j := 0; j < p; j++ {
			reg := 1e-10
			if j < p-1 {
				reg += float64(m.Alpha * float64(n))
			}
			xtx.Set(j, j, xtx.At(j, j)+reg)
		}
		newW := make([]float64, p)
		if err := linalg.SolveSPD(linalg.NewMatrix(p, p), newW, xtx, xty); err != nil {
			return nil, nil, err
		}
		var delta float64
		for j := range w {
			delta += math.Abs(newW[j] - w[j])
		}
		w = newW
		for i, row := range xs {
			abs[i] = math.Abs(yc[i] - linalg.Dot(row, w))
		}
		sigma := median(abs, scratch) / 0.6745
		if sigma < 1e-9 {
			sigma = 1e-9
		}
		thr := m.Epsilon * sigma
		for i := range weights {
			if abs[i] <= thr {
				weights[i] = 1
			} else {
				weights[i] = thr / abs[i]
			}
		}
		if delta < huberTol {
			break
		}
	}
	return w, weights, nil
}

// TestHuberReferenceReproducesPreBasePins checks that irlsRef is the
// loop the Huber cases of TestGoldenLinmodelDigests were pinned to
// before the unit-weight base.
func TestHuberReferenceReproducesPreBasePins(t *testing.T) {
	cases := []struct {
		n    int
		eps  float64
		want string
	}{
		{121, 1, "e2b9125120fd1daea704f495992983fb4737254d8e507f36f77be71cffde9241"},
		{120, 1, "4d0c3ce13fe62daa5d51c19bd87582d6d805c7dac38ab9125b9c41f38c439882"},
		{97, 1.35, "45f9472648547b02309d1fbaee392f8326958885372b263707ed985f154d14ac"},
		{96, 1.35, "87c4f6e15da571d43595304079d14080d08117d1d7576296643c87df8fc48548"},
		{201, 1.5, "bf3b6ffcb529841934bed040eb54068e27fafa9f179c55a534465db777314fd6"},
		{200, 1.5, "1a89b878cd189b3725060711c699f5de81dfe9f7818c1325e20003a8be910913"},
	}
	for _, c := range cases {
		x, y := goldenData(c.n, 6, 9, 53)
		m := NewHuber(c.eps, 1e-3)
		st, err := NewDesign(x, y).state()
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := m.irlsRef(st.xs, st.yc)
		if err != nil {
			t.Fatal(err)
		}
		p := len(w)
		if got := fitDigest(w[:p-1], st.cd.ct.mean+w[p-1]); got != c.want {
			t.Errorf("n=%d eps=%g: reference digest %s, want %s", c.n, c.eps, got, c.want)
		}
	}
}

// contaminate makes y heavy-tailed: every target gets Cauchy-like noise
// (a normal over a normal, clipped), and a fraction frac of them a
// gross shock of either sign.
func contaminate(rng *rand.Rand, y []float64, frac float64) {
	for i := range y {
		y[i] += 0.2 * rng.NormFloat64() / math.Max(0.05, math.Abs(rng.NormFloat64()))
		if rng.Float64() < frac {
			shock := 30 * (1 + rng.ExpFloat64())
			if rng.Intn(2) == 0 {
				shock = -shock
			}
			y[i] += shock
		}
	}
}

// TestHuberBaseMatchesReference is the unit-weight base's property
// test. Over random and lag designs — with a constant column, with
// p ≥ n, with heavy-tailed targets and 0–40% gross outliers — and at
// ε ∈ {1, 1.35, 1.5} and α across Table 2's range (and below it), with
// n and the final count of down-weighted rows both reaching every
// residue mod 4, it checks that irls and irlsRef
//
//   - agree on the coefficients to 1e-9·(1 + ‖w‖∞): in real arithmetic
//     both solve the same weighted system every iteration, so only
//     rounding may separate them;
//   - end with the same set of down-weighted rows.
func TestHuberBaseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	type design struct {
		name string
		x    [][]float64
		y    []float64
	}
	var designs []design
	for _, sh := range []struct {
		n, p       int
		degenerate bool
	}{{120, 6, false}, {60, 12, true}, {400, 14, true}, {12, 12, false}, {8, 20, true}, {15, 25, false},
		{121, 6, false}, {98, 9, true}, {3, 4, false}, {2, 7, true}} {
		for _, frac := range []float64{0, 0.1, 0.4} {
			x, y := randomDesign(rng, sh.n, sh.p, sh.degenerate)
			contaminate(rng, y, frac)
			designs = append(designs, design{fmt.Sprintf("random(n=%d,p=%d,degenerate=%t,outliers=%g)", sh.n, sh.p, sh.degenerate, frac), x, y})
		}
	}
	for _, sh := range []struct{ n, p int }{{414, 14}, {132, 14}, {10, 14}} {
		for _, frac := range []float64{0, 0.2, 0.4} {
			x, y := lagDesign(sh.n, sh.p, int64(sh.n))
			contaminate(rng, y, frac)
			designs = append(designs, design{fmt.Sprintf("lag(n=%d,p=%d,outliers=%g)", sh.n, sh.p, frac), x, y})
		}
	}
	checked, downWeighted, worst := 0, 0, 0.0
	oddN, oddDown := 0, 0 // fits with n, and with the final down-weighted count, ≢ 0 mod 4
	for _, d := range designs {
		for _, eps := range []float64{1, 1.35, 1.5} {
			for _, alpha := range []float64{1e-3, math.Exp(-3), 1, math.Exp(2)} {
				name := fmt.Sprintf("%s/eps=%g/alpha=%g", d.name, eps, alpha)
				m := NewHuber(eps, alpha)
				st, err := NewDesign(d.x, d.y).state()
				if err != nil {
					t.Fatal(err)
				}
				got, gotWeights, err := m.irls(st)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, wantWeights, err := m.irlsRef(st.xs, st.yc)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				var scale float64
				for _, v := range want {
					scale = max(scale, math.Abs(v))
				}
				for j := range got {
					diff := math.Abs(got[j]-want[j]) / (1 + scale)
					if !(diff <= 1e-9) {
						t.Errorf("%s: w[%d] = %v (base), %v (reference)", name, j, got[j], want[j])
					}
					worst = max(worst, diff)
				}
				down := 0
				for i := range gotWeights {
					if (gotWeights[i] != 1) != (wantWeights[i] != 1) {
						t.Errorf("%s: row %d has weight %v (base), %v (reference)", name, i, gotWeights[i], wantWeights[i])
					}
					if wantWeights[i] != 1 {
						down++
					}
				}
				if len(st.xs)%4 != 0 {
					oddN++
				}
				if down%4 != 0 {
					oddDown++
				}
				downWeighted += down
				checked++
			}
		}
	}
	// The row-blocked kernels take rows four at a time; both tails must
	// be reached, or a wrong remainder loop would go unseen.
	if oddN == 0 || oddDown == 0 {
		t.Errorf("%d fits with n ≢ 0 mod 4 and %d with a down-weighted count ≢ 0 mod 4; want both > 0", oddN, oddDown)
	}
	t.Logf("%d fits agree to %.2g·(1 + ‖w‖∞); %d final down-weighted rows in all; n ≢ 0 mod 4 in %d fits, down-weighted count ≢ 0 mod 4 in %d",
		checked, worst, downWeighted, oddN, oddDown)
}
