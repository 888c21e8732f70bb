package stats

import (
	"math"
	"math/rand"
	"testing"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, f := range map[string]func([]float64) float64{
		"Mean": Mean, "Variance": Variance, "Min": Min, "Max": Max,
		"Skewness": Skewness, "Kurtosis": Kurtosis,
	} {
		if got := f(nil); !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestSkewnessSymmetricIsZero(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(xs); !feq(got, 0, 1e-12) {
		t.Errorf("Skewness(symmetric) = %v, want 0", got)
	}
	// Right-skewed data has positive skewness.
	right := []float64{1, 1, 1, 1, 10}
	if Skewness(right) <= 0 {
		t.Errorf("Skewness(right-skewed) = %v, want > 0", Skewness(right))
	}
}

func TestKurtosisNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if got := Kurtosis(xs); !feq(got, 0, 0.1) {
		t.Errorf("excess kurtosis of normal sample = %v, want ≈ 0", got)
	}
	// Uniform distribution has excess kurtosis −1.2.
	for i := range xs {
		xs[i] = rng.Float64()
	}
	if got := Kurtosis(xs); !feq(got, -1.2, 0.05) {
		t.Errorf("excess kurtosis of uniform sample = %v, want ≈ -1.2", got)
	}
}

func TestConstantSeriesMoments(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	if Skewness(xs) != 0 || Kurtosis(xs) != 0 {
		t.Errorf("constant series skew/kurt = %v/%v, want 0/0", Skewness(xs), Kurtosis(xs))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.Sum != 6 || s.Avg != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestHistogramNormalizes(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.9, 1.0}
	h := Histogram(xs, 0, 1, 4)
	if !feq(Sum(h), 1, 1e-12) {
		t.Errorf("histogram sums to %v, want 1", Sum(h))
	}
	// Out-of-range values are clamped.
	h2 := Histogram([]float64{-5, 5}, 0, 1, 2)
	if h2[0] != 0.5 || h2[1] != 0.5 {
		t.Errorf("clamped histogram = %v", h2)
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := KLDivergence(p, p); !feq(got, 0, 1e-6) {
		t.Errorf("KL(p‖p) = %v, want 0", got)
	}
	q := []float64{0.9, 0.1}
	if KLDivergence(p, q) <= 0 {
		t.Errorf("KL(p‖q) = %v, want > 0", KLDivergence(p, q))
	}
	// Asymmetry.
	if feq(KLDivergence(p, q), KLDivergence(q, p), 1e-9) {
		t.Error("KL divergence should be asymmetric here")
	}
}

func TestEntropy(t *testing.T) {
	if got := BinaryEntropy(0.5); !feq(got, math.Log(2), 1e-12) {
		t.Errorf("BinaryEntropy(0.5) = %v", got)
	}
	if BinaryEntropy(0) != 0 || BinaryEntropy(1) != 0 {
		t.Error("BinaryEntropy at boundary should be 0")
	}
}

func TestWilcoxonIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	res, err := WilcoxonSignedRank(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue != 1 {
		t.Errorf("p-value for identical samples = %v, want 1", res.PValue)
	}
}

func TestWilcoxonDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + 1.5 + 0.1*rng.NormFloat64() // strong consistent shift
	}
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.01 {
		t.Errorf("p-value = %v, want < 0.01 for strong shift", res.PValue)
	}
	// No shift → p should typically be large.
	for i := range b {
		b[i] = a[i] + 0.001*rng.NormFloat64()
	}
	res2, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PValue < 0.001 {
		t.Errorf("p-value = %v for pure noise, suspiciously small", res2.PValue)
	}
}

func TestWilcoxonExactSmallSample(t *testing.T) {
	// Classic textbook example: n=6 all-positive differences.
	a := []float64{125, 115, 130, 140, 140, 115}
	b := []float64{110, 122, 125, 120, 140, 124}
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// One zero difference dropped → n = 5.
	if res.N != 5 {
		t.Fatalf("N = %d, want 5", res.N)
	}
	if res.PValue <= 0 || res.PValue > 1 {
		t.Errorf("p-value = %v out of range", res.PValue)
	}
}

func TestWilcoxonExactMatchesKnownValue(t *testing.T) {
	// All n=5 differences positive: W- = 0, exact two-sided p = 2/2^5 = 0.0625.
	a := []float64{10, 20, 30, 40, 50}
	b := []float64{9, 18, 27, 36, 45}
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !feq(res.PValue, 0.0625, 1e-12) {
		t.Errorf("exact p = %v, want 0.0625", res.PValue)
	}
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{0.3, 0.1, 0.2})
	want := []float64{3, 1, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
	// Ties get average ranks.
	r2 := Ranks([]float64{1, 1, 2})
	if r2[0] != 1.5 || r2[1] != 1.5 || r2[2] != 3 {
		t.Fatalf("tied Ranks = %v, want [1.5 1.5 3]", r2)
	}
}

func TestMRRAtK(t *testing.T) {
	preds := [][]string{
		{"a", "b", "c"}, // truth a → 1
		{"b", "a", "c"}, // truth a → 1/2
		{"b", "c", "a"}, // truth a → 1/3
		{"b", "c", "d"}, // truth a → 0
	}
	truth := []string{"a", "a", "a", "a"}
	got := MRRAtK(preds, truth, 3)
	want := (1.0 + 0.5 + 1.0/3 + 0) / 4
	if !feq(got, want, 1e-12) {
		t.Errorf("MRR@3 = %v, want %v", got, want)
	}
	// Cutoff respected: truth at position 3 ignored with k=2.
	if got := MRRAtK(preds[2:3], truth[:1], 2); got != 0 {
		t.Errorf("MRR@2 = %v, want 0", got)
	}
}

func TestF1MacroPerfectAndWorst(t *testing.T) {
	truth := []string{"a", "b", "a", "b"}
	if got, err := F1Macro(truth, truth); err != nil || !feq(got, 1, 1e-12) {
		t.Errorf("perfect F1 = %v (err %v)", got, err)
	}
	pred := []string{"b", "a", "b", "a"}
	if got, err := F1Macro(pred, truth); err != nil || got != 0 {
		t.Errorf("fully wrong F1 = %v, want 0 (err %v)", got, err)
	}
	if _, err := F1Macro(pred[:1], truth); err == nil {
		t.Error("mismatched lengths should error")
	}
}

// Property: KL divergence of a distribution with itself is ≈ 0 and
// non-negative against any other distribution.
func TestKLNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		if d := KLDivergence(p, q); d < 0 {
			t.Fatalf("KL = %v < 0", d)
		}
		if d := KLDivergence(p, p); !feq(d, 0, 1e-9) {
			t.Fatalf("KL(p‖p) = %v", d)
		}
	}
}

// Property: ranks are a permutation-weighted set — their sum equals
// n(n+1)/2 regardless of ties.
func TestRanksSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5)) // force ties
		}
		r := Ranks(xs)
		want := float64(n*(n+1)) / 2
		if !feq(Sum(r), want, 1e-9) {
			t.Fatalf("rank sum = %v, want %v (xs=%v)", Sum(r), want, xs)
		}
	}
}
