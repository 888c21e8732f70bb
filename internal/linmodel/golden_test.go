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

// TestGoldenLinmodelDigests pins the coordinate-descent, Huber IRLS,
// Quantile and LinearSVR fits bit for bit. The coordinate-descent
// digests were recorded from the Gram-form solver; the residual-form
// solver they replaced lives on in lasso_ref_test.go and still
// reproduces its own pins there. The Huber digests were recorded with
// the unit-weight base; the full-rebuild loop it replaced lives on in
// huber_ref_test.go and still reproduces the earlier Huber pins there.
// The Quantile pins were recorded with the one-row-at-a-time loop that
// lives on in quantile_ref_test.go. The Huber and Quantile n cover
// every residue mod 4 and n < 4, so the tails of the row-blocked
// kernels are pinned too. Any change to the standardization, the
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
	quantile := func(n int, q, alpha float64) string {
		x, y := goldenData(n, 6, 9, 54)
		m := NewQuantile(q, alpha)
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return fitDigest(m.Coef, m.Intercept)
	}
	svr := func(n int, c, eps float64, seed int64) string {
		x, y := goldenData(n, 6, 0, 55)
		m := NewLinearSVR(c, eps)
		m.Seed = seed
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
			"0a8b4b7593b98730e00005cef6f01975cb6f092d4fd7da48e8551eef8963330a",
			func() string { return lasso(0.02, SelectionCyclic, 0) }},
		{"lasso/random",
			"3265b9d736c4977d74a74d17a7de97883ab56eaf26f3ba95017e208f74a3c3e3",
			func() string { return lasso(0.005, SelectionRandom, 17) }},
		{"elasticnet/clamped-l1ratio",
			"7db483c443a983e5c181f80e9c6523a19f3b7960447c1b9316e4af01d2ce0cc9",
			func() string { return enet(0.03, 4.5, SelectionCyclic, 0) }},
		{"elasticnet/random-mixed",
			"5fecbab725ad6a93b3a573cea318db17b0da385ff8e5dc186c794a9907cb4304",
			func() string { return enet(0.01, 0.3, SelectionRandom, 23) }},
		{"elasticnetcv/3-folds",
			"76de86dd659f2cc42511b6dc3c63fdacb8b7e667206e542eb72a4fe601fbf632",
			func() string { return enetCV(x, y, 0.7, SelectionCyclic, 0) }},
		{"elasticnetcv/3-folds-random",
			"c32f5c98a1433ec052cfc29602b2f71b6c5b301e308c4b418829bd8b94d519d1",
			func() string { return enetCV(x, y, 0.4, SelectionRandom, 29) }},
		{"elasticnetcv/2-folds",
			"da069f3a14599911236f741e90b6d0e5696cc197f6ac9ecf53970be57009ac78",
			func() string { return enetCV(xs, ys, 0.5, SelectionRandom, 31) }},
		{"huber/eps1-odd",
			"1f02c74d90592e19ca2b2cb96f60fd18f22c1d569744a3682ea4c431ab386d51",
			func() string { return huber(121, 1) }},
		{"huber/eps1-even",
			"9a77861a9ec58a17eca3afa33eb84a5939ae1e85dd6f65d540fe3385df1ece1e",
			func() string { return huber(120, 1) }},
		{"huber/eps1.35-odd",
			"de883f8f5d68f89e3c03528c4a497becfd73b212dd0bf2b56b3116f53ef0d832",
			func() string { return huber(97, 1.35) }},
		{"huber/eps1.35-even",
			"4ed8ec68141aaba1667d29db56bc5bc5a840b19fa296984125b2392586cf8e34",
			func() string { return huber(96, 1.35) }},
		{"huber/eps1.5-odd",
			"5f0786be107761a6f3786ddff8a96c8d2cfe085913c14ba731c8d557d426a6b1",
			func() string { return huber(201, 1.5) }},
		{"huber/eps1.5-even",
			"690de08bb43a1aae41a22939a384a60a87805a4d566c3f44b0e13bdb94a758e3",
			func() string { return huber(200, 1.5) }},
		{"huber/eps1.35-n-mod4-2",
			"ca8b30ece4112283924cb6de52dd3e30ff988f75cd4c0bb2a88c06b9fd903941",
			func() string { return huber(98, 1.35) }},
		{"huber/eps1-n-mod4-3",
			"799524b94d861019d58798352e536b52f316feb8b0269bcbcb778a2c3344c580",
			func() string { return huber(99, 1) }},
		{"huber/eps1.5-n3",
			"5d629060616f27f5970fd8186525c59279f174a0ddaf9f7ced3bbf7ffb1c78d3",
			func() string { return huber(3, 1.5) }},
		{"quantile/q0.5-n-mod4-1",
			"6bbe7ac06eaaef5393e9d9de538da8d64eca9a9a2c05dd8c5084aed27a53f840",
			func() string { return quantile(121, 0.5, 1e-3) }},
		{"quantile/q0.1-n-mod4-2",
			"ef1418fb7ee5bd91a509fc6e8cee25489f17fa03a41dda634e0183f72f337ecd",
			func() string { return quantile(98, 0.1, 1e-4) }},
		{"quantile/q0.9-n-mod4-3",
			"0b02939c6d15d6d6ca3fc11d84f66aa0907df983e3973f0ff6999040b297ba42",
			func() string { return quantile(75, 0.9, 0.05) }},
		{"quantile/q0.5-n3",
			"668bb9707480c998738ce04344ef9de13c073a3937aec868e634c362315655d7",
			func() string { return quantile(3, 0.5, 1e-3) }},
		{"linearsvr/c1-eps0.1",
			"133ef1215c2e67e3ca18a346404bced39d822b5f145adf36f3358ce4d997f61d",
			func() string { return svr(121, 1, 0.1, 0) }},
		{"linearsvr/c5-eps0.01-seed",
			"26b6a7fd20fcf15deca7e8106389578e425ed2bb396374856003667e947aca2e",
			func() string { return svr(98, 5, 0.01, 37) }},
	}
	for _, c := range cases {
		if got := c.got(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
