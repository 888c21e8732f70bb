package stats

import (
	"fmt"
	"math"
	"sort"
)

// WilcoxonResult holds the outcome of a Wilcoxon signed-rank test.
type WilcoxonResult struct {
	W      float64 // min of positive/negative rank sums
	N      int     // number of non-zero differences
	Z      float64 // normal approximation statistic
	PValue float64 // two-sided p-value
}

// WilcoxonSignedRank performs the two-sided Wilcoxon signed-rank test
// on paired samples a and b, as used in Section 5.2 to compare
// FedForecaster's per-dataset MSE against each baseline. Ties in
// |difference| receive average ranks; zero differences are dropped
// (Wilcoxon's original procedure). For n ≤ 25 the exact null
// distribution is enumerated; beyond that a normal approximation with
// tie correction and continuity correction is used.
//
// Mismatched sample lengths are a data-shape condition callers can
// hit when baselines cover different dataset subsets, so it surfaces
// as an error rather than a panic.
func WilcoxonSignedRank(a, b []float64) (WilcoxonResult, error) {
	if len(a) != len(b) {
		return WilcoxonResult{}, fmt.Errorf("stats: wilcoxon requires equal-length samples (got %d and %d)", len(a), len(b))
	}
	type diff struct {
		abs  float64
		sign int
	}
	var diffs []diff
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue
		}
		s := 1
		if d < 0 {
			s = -1
		}
		diffs = append(diffs, diff{math.Abs(d), s})
	}
	n := len(diffs)
	if n == 0 {
		return WilcoxonResult{PValue: 1}, nil
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].abs < diffs[j].abs })

	// Average ranks over ties; accumulate the tie correction term.
	ranks := make([]float64, n)
	var tieCorrection float64
	for i := 0; i < n; {
		j := i
		//lint:allow floateq tie detection compares stored values bitwise; no arithmetic separates them
		for j < n && diffs[j].abs == diffs[i].abs {
			j++
		}
		avg := float64(i+j+1) / 2 // ranks are 1-based: positions i..j-1 → ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		t := float64(j - i)
		tieCorrection += float64(t*t*t) - t
		i = j
	}

	var wPlus, wMinus float64
	hasTies := tieCorrection > 0
	for i, d := range diffs {
		if d.sign > 0 {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}
	w := math.Min(wPlus, wMinus)

	if n <= 25 && !hasTies {
		return WilcoxonResult{W: w, N: n, PValue: wilcoxonExactP(wPlus, n)}, nil
	}

	nf := float64(n)
	meanW := float64(nf * (nf + 1) / 4)
	varW := nf*(nf+1)*(2*nf+1)/24 - tieCorrection/48
	if varW <= 0 {
		return WilcoxonResult{W: w, N: n, PValue: 1}, nil
	}
	// Continuity correction toward the mean.
	z := (w - meanW + 0.5) / math.Sqrt(varW)
	p := 2 * normalCDF(z)
	if p > 1 {
		p = 1
	}
	return WilcoxonResult{W: w, N: n, Z: z, PValue: p}, nil
}

// wilcoxonExactP enumerates the exact two-sided p-value for the
// positive rank sum wPlus with n untied non-zero differences by dynamic
// programming over the 2^n sign assignments.
func wilcoxonExactP(wPlus float64, n int) float64 {
	maxSum := n * (n + 1) / 2
	// counts[s] = number of sign assignments with positive rank sum s.
	counts := make([]float64, maxSum+1)
	counts[0] = 1
	for r := 1; r <= n; r++ {
		for s := maxSum; s >= r; s-- {
			counts[s] += counts[s-r]
		}
	}
	total := math.Ldexp(1, n) // 2^n
	// Two-sided: P(W+ ≤ min(w, maxSum-w)) + P(W+ ≥ max(...)).
	wInt := int(math.Round(wPlus))
	lo := wInt
	if maxSum-wInt < lo {
		lo = maxSum - wInt
	}
	var tail float64
	for s := 0; s <= lo; s++ {
		tail += counts[s]
	}
	for s := maxSum - lo; s <= maxSum; s++ {
		tail += counts[s]
	}
	if 2*lo == maxSum { // the two tails overlap on a single point
		tail -= counts[lo]
	}
	p := tail / total
	if p > 1 {
		p = 1
	}
	return p
}

// normalCDF returns P(Z ≤ z) for a standard normal variable.
func normalCDF(z float64) float64 {
	return float64(0.5 * math.Erfc(-z/math.Sqrt2))
}

// NormalCDF exposes the standard normal CDF for other packages
// (e.g. expected-improvement acquisition in Bayesian optimization).
func NormalCDF(z float64) float64 { return normalCDF(z) }

// NormalPDF returns the standard normal density at z.
func NormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}
