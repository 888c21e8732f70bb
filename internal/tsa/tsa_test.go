package tsa

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// ar1 generates an AR(1) series x_t = phi·x_{t−1} + ε_t.
func ar1(n int, phi float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = phi*xs[i-1] + rng.NormFloat64()
	}
	return xs
}

func randomWalk(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = xs[i-1] + rng.NormFloat64()
	}
	return xs
}

func TestACFLagZeroIsOne(t *testing.T) {
	xs := ar1(500, 0.5, 1)
	acf := ACF(xs, 10)
	if !feq(acf[0], 1, 1e-12) {
		t.Fatalf("ACF[0] = %v, want 1", acf[0])
	}
	for lag, v := range acf {
		if math.Abs(v) > 1+1e-9 {
			t.Fatalf("ACF[%d] = %v outside [-1,1]", lag, v)
		}
	}
}

func TestACFOfAR1DecaysGeometrically(t *testing.T) {
	xs := ar1(20000, 0.8, 2)
	acf := ACF(xs, 3)
	if !feq(acf[1], 0.8, 0.05) {
		t.Errorf("ACF[1] = %v, want ≈ 0.8", acf[1])
	}
	if !feq(acf[2], 0.64, 0.07) {
		t.Errorf("ACF[2] = %v, want ≈ 0.64", acf[2])
	}
}

func TestACFConstantSeries(t *testing.T) {
	acf := ACF([]float64{3, 3, 3, 3, 3}, 2)
	if acf[0] != 1 || acf[1] != 0 {
		t.Errorf("ACF of constant series = %v", acf)
	}
}

func TestPACFOfAR1CutsOffAfterLag1(t *testing.T) {
	xs := ar1(20000, 0.7, 3)
	pacf := PACF(xs, 6)
	if !feq(pacf[1], 0.7, 0.05) {
		t.Errorf("PACF[1] = %v, want ≈ 0.7", pacf[1])
	}
	for lag := 2; lag <= 6; lag++ {
		if math.Abs(pacf[lag]) > 0.05 {
			t.Errorf("PACF[%d] = %v, want ≈ 0 for AR(1)", lag, pacf[lag])
		}
	}
}

func TestPACFOfAR2(t *testing.T) {
	// AR(2): x_t = 0.5 x_{t-1} + 0.3 x_{t-2} + ε. PACF[2] should equal 0.3.
	rng := rand.New(rand.NewSource(4))
	n := 30000
	xs := make([]float64, n)
	for i := 2; i < n; i++ {
		xs[i] = 0.5*xs[i-1] + 0.3*xs[i-2] + rng.NormFloat64()
	}
	pacf := PACF(xs, 4)
	if !feq(pacf[2], 0.3, 0.05) {
		t.Errorf("PACF[2] = %v, want ≈ 0.3", pacf[2])
	}
	if math.Abs(pacf[3]) > 0.05 || math.Abs(pacf[4]) > 0.05 {
		t.Errorf("PACF beyond order = %v, %v, want ≈ 0", pacf[3], pacf[4])
	}
}

func TestSignificantLags(t *testing.T) {
	xs := ar1(5000, 0.8, 5)
	lags := SignificantLags(xs, 10)
	if len(lags) == 0 || lags[0] != 1 {
		t.Fatalf("significant lags of AR(1) = %v, want lag 1 first", lags)
	}
	// White noise should have very few significant lags.
	rng := rand.New(rand.NewSource(6))
	noise := make([]float64, 5000)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	if got := SignificantLags(noise, 20); len(got) > 4 {
		t.Errorf("white noise produced %d significant lags: %v", len(got), got)
	}
}

func TestInsignificantGapCount(t *testing.T) {
	cases := []struct {
		lags []int
		want int
	}{
		{nil, 0},
		{[]int{3}, 0},
		{[]int{1, 2, 3}, 0},
		{[]int{1, 5}, 3},
		{[]int{2, 4, 9}, 5}, // lags 3,5,6,7,8 are insignificant between 2 and 9
	}
	for _, c := range cases {
		if got := InsignificantGapCount(c.lags); got != c.want {
			t.Errorf("InsignificantGapCount(%v) = %d, want %d", c.lags, got, c.want)
		}
	}
}

func TestDifference(t *testing.T) {
	xs := []float64{1, 4, 9, 16}
	d1 := Difference(xs, 1)
	want1 := []float64{3, 5, 7}
	for i := range want1 {
		if d1[i] != want1[i] {
			t.Fatalf("d1 = %v, want %v", d1, want1)
		}
	}
	d2 := Difference(xs, 2)
	if len(d2) != 2 || d2[0] != 2 || d2[1] != 2 {
		t.Fatalf("d2 = %v, want [2 2]", d2)
	}
	if Difference([]float64{1}, 1) != nil {
		t.Error("differencing a singleton should return nil")
	}
}

func TestADFStationarySeries(t *testing.T) {
	xs := ar1(2000, 0.3, 7)
	res, err := ADF(xs, -1)
	if err != nil {
		t.Fatalf("ADF: %v", err)
	}
	if !res.Stationary {
		t.Errorf("AR(1) phi=0.3 flagged non-stationary (tau=%v, p=%v)", res.Statistic, res.PValue)
	}
	if res.PValue > 0.05 {
		t.Errorf("p-value = %v, want ≤ 0.05", res.PValue)
	}
}

func TestADFRandomWalkNotStationary(t *testing.T) {
	stationaryCount := 0
	for seed := int64(0); seed < 5; seed++ {
		xs := randomWalk(1500, 100+seed)
		res, err := ADF(xs, -1)
		if err != nil {
			t.Fatalf("ADF: %v", err)
		}
		if res.Stationary {
			stationaryCount++
		}
	}
	if stationaryCount > 1 {
		t.Errorf("%d/5 random walks flagged stationary, expected ≤ 1 (5%% level)", stationaryCount)
	}
}

func TestADFDifferencedWalkIsStationary(t *testing.T) {
	xs := randomWalk(1500, 8)
	res, err := ADF(Difference(xs, 1), -1)
	if err != nil {
		t.Fatalf("ADF: %v", err)
	}
	if !res.Stationary {
		t.Errorf("differenced random walk flagged non-stationary (tau=%v)", res.Statistic)
	}
}

func TestADFShortSeries(t *testing.T) {
	if _, err := ADF([]float64{1, 2, 3}, -1); err == nil {
		t.Error("ADF accepted a 3-point series")
	}
}

func TestADFConstantSeries(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 42
	}
	res, err := ADF(xs, 0)
	if err != nil {
		t.Fatalf("ADF on constant series: %v", err)
	}
	if !res.Stationary {
		t.Error("constant series should be reported stationary")
	}
}

func TestIsStationaryConvenience(t *testing.T) {
	if IsStationary(randomWalk(1000, 21)) {
		t.Error("random walk reported stationary")
	}
	if !IsStationary(ar1(1000, 0.2, 22)) {
		t.Error("strongly mean-reverting series reported non-stationary")
	}
	if IsStationary([]float64{1, 2}) {
		t.Error("too-short series should be conservatively non-stationary")
	}
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := FFT(x)
	for k := 0; k < n; k++ {
		var want complex128
		for t2 := 0; t2 < n; t2++ {
			ang := -2 * math.Pi * float64(k) * float64(t2) / float64(n)
			want += x[t2] * cmplx.Exp(complex(0, ang))
		}
		if cmplx.Abs(got[k]-want) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, want %v", k, got[k], want)
		}
	}
}

func TestFFTZeroPads(t *testing.T) {
	x := []complex128{1, 2, 3} // not a power of two
	out := FFT(x)
	if len(out) != 4 {
		t.Fatalf("FFT output length = %d, want 4", len(out))
	}
	// DC bin must equal the sum of inputs.
	if cmplx.Abs(out[0]-complex(6, 0)) > 1e-12 {
		t.Errorf("DC bin = %v, want 6", out[0])
	}
}

func TestPeriodogramFindsSinusoid(t *testing.T) {
	n := 1024
	period := 32
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / float64(period))
	}
	freqs, power := Periodogram(xs)
	best := 0
	for i := range power {
		if power[i] > power[best] {
			best = i
		}
	}
	gotPeriod := 1 / freqs[best]
	if !feq(gotPeriod, float64(period), 1) {
		t.Errorf("dominant period = %v, want %d", gotPeriod, period)
	}
}

func TestDetectSeasonalities(t *testing.T) {
	n := 2048
	xs := make([]float64, n)
	rng := rand.New(rand.NewSource(10))
	for i := range xs {
		xs[i] = 3*math.Sin(2*math.Pi*float64(i)/64) +
			1.5*math.Sin(2*math.Pi*float64(i)/13) +
			0.2*rng.NormFloat64()
	}
	comps := DetectSeasonalities(xs, 3)
	if len(comps) < 2 {
		t.Fatalf("detected %d components, want ≥ 2: %v", len(comps), comps)
	}
	if !feq(float64(comps[0].Period), 64, 3) {
		t.Errorf("strongest period = %d, want ≈ 64", comps[0].Period)
	}
	found13 := false
	for _, c := range comps {
		if feq(float64(c.Period), 13, 1.5) {
			found13 = true
		}
	}
	if !found13 {
		t.Errorf("period 13 not detected: %v", comps)
	}
}

func TestDetectSeasonalitiesWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	comps := DetectSeasonalities(xs, 5)
	if len(comps) > 2 {
		t.Errorf("white noise produced %d seasonal components: %v", len(comps), comps)
	}
}

func TestHiguchiFD(t *testing.T) {
	// A straight line is maximally smooth: FD ≈ 1.
	line := make([]float64, 500)
	for i := range line {
		line[i] = float64(i)
	}
	if fd := HiguchiFD(line, 10); !feq(fd, 1, 0.05) {
		t.Errorf("FD(line) = %v, want ≈ 1", fd)
	}
	// White noise: FD ≈ 2.
	rng := rand.New(rand.NewSource(13))
	noise := make([]float64, 5000)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	if fd := HiguchiFD(noise, 10); !feq(fd, 2, 0.15) {
		t.Errorf("FD(noise) = %v, want ≈ 2", fd)
	}
	// Random walk sits in between: FD ≈ 1.5.
	walk := randomWalk(5000, 14)
	if fd := HiguchiFD(walk, 10); !feq(fd, 1.5, 0.15) {
		t.Errorf("FD(walk) = %v, want ≈ 1.5", fd)
	}
	if !math.IsNaN(HiguchiFD([]float64{1, 2, 3}, 5)) {
		t.Error("FD of tiny series should be NaN")
	}
}
