package linmodel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// newCDProblemRef is the Gram build that Design replaced, unchanged:
// it standardizes one row at a time and adds it to the p×p Gram with
// addOuter. It is the oracle for the Gram form Design reads off its
// padded unit-weight base.
func newCDProblemRef(x [][]float64, y []float64) (*cdProblem, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errEmptyTraining
	}
	cd := &cdProblem{}
	if err := cd.sc.fit(x); err != nil {
		return nil, err
	}
	p := len(cd.sc.mean)
	cd.p = p
	yc := cd.ct.fit(y)
	cd.gram, cd.xty, cd.colNorm = make([]float64, p*p), make([]float64, p), make([]float64, p)
	z := make([]float64, p)
	for i, row := range x {
		for j, v := range row {
			z[j] = (v - cd.sc.mean[j]) / cd.sc.std[j]
		}
		addOuter(cd.gram, cd.xty, z, 1, yc[i])
	}
	nf := float64(len(x))
	for j := 0; j < p; j++ {
		cd.xty[j] /= nf
		for k := j; k < p; k++ {
			cd.gram[j*p+k] /= nf
		}
		cd.colNorm[j] = max(cd.gram[j*p+j], 1e-12)
	}
	mirrorUpper(cd.gram, p)
	return cd, nil
}

// TestDesignGramMatchesRowByRow checks that the Gram form a Design
// reads off its padded base — the leading p×p block and Xᵀy of the
// unit-weight Gram summed four rows at a time, over n — has the bits of
// the row-by-row build, with the same scaler and target mean. The
// designs cover every n mod 4 and n < 4, constant and sub-floor
// columns, and p ≥ n.
func TestDesignGramMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	checked := 0
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 13, 40, 41, 98, 99, 414} {
		for _, p := range []int{1, 6, 14, 25} {
			for _, degenerate := range []bool{false, true} {
				x, y := randomDesign(rng, n, p, degenerate)
				name := fmt.Sprintf("n=%d/p=%d/degenerate=%t", n, p, degenerate)
				want, err := newCDProblemRef(x, y)
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewDesign(x, y).state()
				if err != nil {
					t.Fatal(err)
				}
				got := &st.cd
				for _, f := range []struct {
					what      string
					got, want []float64
				}{
					{"gram", got.gram, want.gram},
					{"xty", got.xty, want.xty},
					{"colNorm", got.colNorm, want.colNorm},
					{"mean", got.sc.mean, want.sc.mean},
					{"std", got.sc.std, want.sc.std},
					{"target mean", []float64{got.ct.mean}, []float64{want.ct.mean}},
				} {
					if !equalBits(f.got, f.want) {
						t.Errorf("%s: %s = %v, row by row %v", name, f.what, f.got, f.want)
					}
				}
				checked++
			}
		}
	}
	t.Logf("%d designs agree bit for bit", checked)
}

// sharedFit is one linear candidate fitted both ways: fresh, on the
// rows, and through FitDesign on a shared Design. Each returns the
// fit's coefficients followed by its intercept (and, for
// ElasticNetCV, its selected alpha).
type sharedFit struct {
	name   string
	fresh  func(x [][]float64, y []float64) ([]float64, error)
	design func(d *Design) ([]float64, error)
}

func sharedFits() []sharedFit {
	lasso := func(alpha float64, sel SelectionRule, seed int64) func() *Lasso {
		return func() *Lasso {
			m := NewLasso(alpha, sel)
			m.Seed = seed
			return m
		}
	}
	enet := func(alpha, l1 float64, sel SelectionRule, seed int64) func() *ElasticNet {
		return func() *ElasticNet {
			m := NewElasticNet(alpha, l1, sel)
			m.Seed = seed
			return m
		}
	}
	encv := func(l1 float64, sel SelectionRule, seed int64) func() *ElasticNetCV {
		return func() *ElasticNetCV {
			m := NewElasticNetCV(l1, sel)
			m.Seed = seed
			return m
		}
	}
	huber := func(eps, alpha float64) func() *HuberRegressor {
		return func() *HuberRegressor { return NewHuber(eps, alpha) }
	}
	out := func(coef []float64, scalars ...float64) []float64 {
		return append(append([]float64(nil), coef...), scalars...)
	}
	var fits []sharedFit
	for _, c := range []struct {
		name string
		make func() *Lasso
	}{
		{"lasso/cyclic", lasso(0.02, SelectionCyclic, 0)},
		{"lasso/random", lasso(0.005, SelectionRandom, 17)},
	} {
		fits = append(fits, sharedFit{c.name,
			func(x [][]float64, y []float64) ([]float64, error) {
				m := c.make()
				err := m.Fit(x, y)
				return out(m.Coef, m.Intercept), err
			},
			func(d *Design) ([]float64, error) {
				m := c.make()
				err := m.FitDesign(d)
				return out(m.Coef, m.Intercept), err
			}})
	}
	for _, c := range []struct {
		name string
		make func() *ElasticNet
	}{
		{"elasticnet/clamped-l1ratio", enet(0.03, 4.5, SelectionCyclic, 0)},
		{"elasticnet/random-mixed", enet(0.01, 0.3, SelectionRandom, 23)},
	} {
		fits = append(fits, sharedFit{c.name,
			func(x [][]float64, y []float64) ([]float64, error) {
				m := c.make()
				err := m.Fit(x, y)
				return out(m.Coef, m.Intercept), err
			},
			func(d *Design) ([]float64, error) {
				m := c.make()
				err := m.FitDesign(d)
				return out(m.Coef, m.Intercept), err
			}})
	}
	for _, c := range []struct {
		name string
		make func() *ElasticNetCV
	}{
		{"elasticnetcv/cyclic", encv(0.7, SelectionCyclic, 0)},
		{"elasticnetcv/random", encv(0.4, SelectionRandom, 29)},
	} {
		fits = append(fits, sharedFit{c.name,
			func(x [][]float64, y []float64) ([]float64, error) {
				m := c.make()
				if err := m.Fit(x, y); err != nil {
					return nil, err
				}
				return out(m.inner.Coef, m.inner.Intercept, m.BestAlpha), nil
			},
			func(d *Design) ([]float64, error) {
				m := c.make()
				if err := m.FitDesign(d); err != nil {
					return nil, err
				}
				return out(m.inner.Coef, m.inner.Intercept, m.BestAlpha), nil
			}})
	}
	for _, c := range []struct {
		name string
		make func() *HuberRegressor
	}{
		{"huber/eps1", huber(1, 1e-3)},
		{"huber/eps1.35", huber(1.35, 0.05)},
		{"huber/eps1.5", huber(1.5, 1)},
	} {
		fits = append(fits, sharedFit{c.name,
			func(x [][]float64, y []float64) ([]float64, error) {
				m := c.make()
				err := m.Fit(x, y)
				return out(m.Coef, m.Intercept), err
			},
			func(d *Design) ([]float64, error) {
				m := c.make()
				err := m.FitDesign(d)
				return out(m.Coef, m.Intercept), err
			}})
	}
	return fits
}

// TestSharedDesignMatchesFreshFits fits every linear candidate that
// has FitDesign on one shared Design per golden shape (TestGoldenLinmodelDigests'
// designs, the Huber ones at every n mod 4 and n < 4), first one after
// another and then all at once from concurrent goroutines, and checks
// each fit's coefficients, intercept and selected alpha against a
// fresh Fit on the rows, bit for bit. Run it under -race: the
// concurrent fits share the design's lazily built state and its fold
// memo.
func TestSharedDesignMatchesFreshFits(t *testing.T) {
	type shape struct {
		name string
		x    [][]float64
		y    []float64
	}
	var shapes []shape
	x, y := goldenData(180, 7, 0, 51)
	shapes = append(shapes, shape{"golden(180x7)", x, y})
	x, y = goldenData(10, 5, 0, 52)
	shapes = append(shapes, shape{"golden(10x5)", x, y})
	for _, n := range []int{3, 96, 97, 98, 99} {
		x, y := goldenData(n, 6, 9, 53)
		shapes = append(shapes, shape{fmt.Sprintf("golden-outliers(%dx6)", n), x, y})
	}
	x, y = lagDesign(414, 14, 5)
	shapes = append(shapes, shape{"chaos(414x14)", x, y})
	fits := sharedFits()
	for _, sh := range shapes {
		want := make([][]float64, len(fits))
		for i, f := range fits {
			w, err := f.fresh(sh.x, sh.y)
			if err != nil {
				t.Fatalf("%s/%s: fresh fit: %v", sh.name, f.name, err)
			}
			want[i] = w
		}
		check := func(mode string, i int, got []float64, err error) {
			if err != nil {
				t.Errorf("%s/%s/%s: %v", sh.name, fits[i].name, mode, err)
			} else if !equalBits(got, want[i]) {
				t.Errorf("%s/%s/%s: %v, fresh fit %v", sh.name, fits[i].name, mode, got, want[i])
			}
		}
		seq := NewDesign(sh.x, sh.y)
		for round := 0; round < 2; round++ {
			for i, f := range fits {
				got, err := f.design(seq)
				check(fmt.Sprintf("sequential-%d", round), i, got, err)
			}
		}
		conc := NewDesign(sh.x, sh.y)
		var wg sync.WaitGroup
		results := make([][]float64, 3*len(fits))
		errs := make([]error, len(results))
		for r := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[r], errs[r] = fits[r%len(fits)].design(conc)
			}()
		}
		wg.Wait()
		for r := range results {
			check("concurrent", r%len(fits), results[r], errs[r])
		}
	}
}

// TestDesignErrorsMemoized checks that a Design keeps its build error:
// every FitDesign on an empty, mismatched or ragged design returns the
// error a fit on the rows has always returned for it, on the first
// call and on every later one, whichever model asked first.
// ElasticNetCV still rejects NumAlphas ≤ 0 before it looks at a
// non-empty design.
func TestDesignErrorsMemoized(t *testing.T) {
	ragged := [][]float64{{1, 2, 3}, {4, 5}, {6, 7, 8}, {9, 10, 11}}
	empty := errEmptyTraining.Error()
	raggedErr := "linmodel: ragged design: row 1 has 2 features, row 0 has 3"
	cases := []struct {
		name string
		x    [][]float64
		y    []float64
		want string
	}{
		{"empty", nil, nil, empty},
		{"no-rows", [][]float64{}, []float64{1}, empty},
		{"mismatched", [][]float64{{1}, {2}, {3}}, []float64{1, 2}, empty},
		{"ragged", ragged, []float64{1, 2, 3, 4}, raggedErr},
	}
	fits := []struct {
		name string
		fit  func(d *Design) error
	}{
		{"Lasso", func(d *Design) error { return NewLasso(0.1, SelectionCyclic).FitDesign(d) }},
		{"ElasticNet", func(d *Design) error { return NewElasticNet(0.1, 0.5, SelectionRandom).FitDesign(d) }},
		{"ElasticNetCV", func(d *Design) error { return NewElasticNetCV(0.5, SelectionCyclic).FitDesign(d) }},
		{"Huber", func(d *Design) error { return NewHuber(1.35, 0.001).FitDesign(d) }},
	}
	for _, c := range cases {
		for first := range fits {
			d := NewDesign(c.x, c.y)
			for k := range 2 * len(fits) {
				f := fits[(first+k)%len(fits)]
				err := f.fit(d)
				if err == nil || err.Error() != c.want {
					t.Errorf("%s: %s (call %d, %s first) = %v, want %q", c.name, f.name, k, fits[first].name, err, c.want)
				}
			}
		}
	}
	cv := NewElasticNetCV(0.5, SelectionCyclic)
	cv.NumAlphas = 0
	wantCV := "linmodel: ElasticNetCV.NumAlphas = 0, want ≥ 1"
	for _, c := range cases {
		want := wantCV
		if c.want == empty {
			want = empty
		}
		if err := cv.FitDesign(NewDesign(c.x, c.y)); err == nil || err.Error() != want {
			t.Errorf("%s: ElasticNetCV with NumAlphas 0 = %v, want %q", c.name, err, want)
		}
	}
}

// TestDesignBuiltOnce checks that fits on one Design share its state:
// Lasso and Huber fitted on it read the design's one scaler, and a
// second ElasticNetCV fit reads the fold problems the first one built.
func TestDesignBuiltOnce(t *testing.T) {
	x, y := lagDesign(414, 14, 5)
	d := NewDesign(x, y)
	lasso, huber := NewLasso(0.02, SelectionCyclic), NewHuber(1.35, 0.1)
	if err := lasso.FitDesign(d); err != nil {
		t.Fatal(err)
	}
	st, err := d.state()
	if err != nil {
		t.Fatal(err)
	}
	if err := huber.FitDesign(d); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		sc   scaler
	}{{"Lasso", lasso.scaler}, {"Huber", huber.scaler}} {
		if &m.sc.mean[0] != &st.cd.sc.mean[0] || &m.sc.std[0] != &st.cd.sc.std[0] {
			t.Errorf("%s fitted with a scaler of its own", m.name)
		}
	}
	cv := NewElasticNetCV(0.7, SelectionCyclic)
	if err := cv.FitDesign(d); err != nil {
		t.Fatal(err)
	}
	if got := len(d.folds); got != 2 {
		t.Fatalf("ElasticNetCV memoized %d folds, want 2", got)
	}
	folds := [2]*cdProblem{d.folds[0].cd, d.folds[1].cd}
	if err := NewElasticNetCV(0.3, SelectionRandom).FitDesign(d); err != nil {
		t.Fatal(err)
	}
	if len(d.folds) != 2 || d.folds[0].cd != folds[0] || d.folds[1].cd != folds[1] {
		t.Error("a second ElasticNetCV fit rebuilt the fold problems")
	}
}
