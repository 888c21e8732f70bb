package linmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenData draws n rows of p columns where column 2 is constant (so
// the scaler takes its std = 1 path) and the rest are correlated
// Gaussians, with a sparse linear target plus noise. Every outlierEvery-th
// target gets a large shock when outlierEvery > 0.
func goldenData(n, p, outlierEvery int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		base := rng.NormFloat64()
		for j := range row {
			row[j] = 0.6*base + rng.NormFloat64()*float64(j+1)
		}
		row[2] = 4.25
		x[i] = row
		y[i] = 1.5*row[0] - 0.75*row[1] + 0.1*row[p-1] + 3 + 0.5*rng.NormFloat64()
		if outlierEvery > 0 && i%outlierEvery == 0 {
			y[i] += 40 * (1 + rng.Float64())
		}
	}
	return x, y
}

// fitDigest hashes a fit's coefficients, intercept and (for the CV
// model) selected alpha bit for bit.
func fitDigest(coef []float64, scalars ...float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range coef {
		put(v)
	}
	for _, v := range scalars {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenLinmodelDigests pins the coordinate-descent and Huber IRLS
// fits bit for bit. The digests were recorded from the row-major
// implementations that predate the column-major design and the
// allocation-free IRLS loop; any change to the standardization, the
// update order, the rng draws, the summation order or the median shows
// up here.
func TestGoldenLinmodelDigests(t *testing.T) {
	x, y := goldenData(180, 7, 0, 51)
	xs, ys := goldenData(10, 5, 0, 52) // n < folds·4: ElasticNetCV drops to 2 folds

	lasso := func(alpha float64, sel SelectionRule, seed int64) string {
		m := NewLasso(alpha, sel)
		m.Seed = seed
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return fitDigest(m.Coef, m.Intercept)
	}
	enet := func(alpha, l1 float64, sel SelectionRule, seed int64) string {
		m := NewElasticNet(alpha, l1, sel)
		m.Seed = seed
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return fitDigest(m.Coef, m.Intercept)
	}
	enetCV := func(x [][]float64, y []float64, l1 float64, sel SelectionRule, seed int64) string {
		m := NewElasticNetCV(l1, sel)
		m.Seed = seed
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return fitDigest(m.inner.Coef, m.inner.Intercept, m.BestAlpha)
	}
	huber := func(n int, eps float64) string {
		x, y := goldenData(n, 6, 9, 53)
		m := NewHuber(eps, 1e-3)
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return fitDigest(m.Coef, m.Intercept)
	}

	cases := []struct {
		name, want string
		got        func() string
	}{
		{"lasso/cyclic",
			"4a4c07fa7b03da855511d20e338f992ad42eb96674a533b9f9677935ac258d31",
			func() string { return lasso(0.02, SelectionCyclic, 0) }},
		{"lasso/random",
			"07e073b3b3713280ac23c47f111e0c78d7de82e10e7bfd9b90872d5ceddebf94",
			func() string { return lasso(0.005, SelectionRandom, 17) }},
		{"elasticnet/clamped-l1ratio",
			"b5ba04aeee52a9a93509f1ef7b86f659ceceff1e3dba8cf2ac1732454e4da392",
			func() string { return enet(0.03, 4.5, SelectionCyclic, 0) }},
		{"elasticnet/random-mixed",
			"84a57360774ae977b5f77e6bc4e99a42e1056857b51f100e3b1b990a24981db5",
			func() string { return enet(0.01, 0.3, SelectionRandom, 23) }},
		{"elasticnetcv/3-folds",
			"61310977da24207384de31c47c85d291754e7d1f5341dbb67267f69d849fc804",
			func() string { return enetCV(x, y, 0.7, SelectionCyclic, 0) }},
		{"elasticnetcv/3-folds-random",
			"036af1c42d7e51a666f484c00b3d43ef49ae3dfd8a356959bc05e56d782f16d3",
			func() string { return enetCV(x, y, 0.4, SelectionRandom, 29) }},
		{"elasticnetcv/2-folds",
			"be939147196a97db1dbe5fe5a1680a88a4f20c740dc416ded482d00733f02537",
			func() string { return enetCV(xs, ys, 0.5, SelectionRandom, 31) }},
		{"huber/eps1-odd",
			"e2b9125120fd1daea704f495992983fb4737254d8e507f36f77be71cffde9241",
			func() string { return huber(121, 1) }},
		{"huber/eps1-even",
			"4d0c3ce13fe62daa5d51c19bd87582d6d805c7dac38ab9125b9c41f38c439882",
			func() string { return huber(120, 1) }},
		{"huber/eps1.35-odd",
			"45f9472648547b02309d1fbaee392f8326958885372b263707ed985f154d14ac",
			func() string { return huber(97, 1.35) }},
		{"huber/eps1.35-even",
			"87c4f6e15da571d43595304079d14080d08117d1d7576296643c87df8fc48548",
			func() string { return huber(96, 1.35) }},
		{"huber/eps1.5-odd",
			"bf3b6ffcb529841934bed040eb54068e27fafa9f179c55a534465db777314fd6",
			func() string { return huber(201, 1.5) }},
		{"huber/eps1.5-even",
			"1a89b878cd189b3725060711c699f5de81dfe9f7818c1325e20003a8be910913",
			func() string { return huber(200, 1.5) }},
	}
	for _, c := range cases {
		if got := c.got(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
