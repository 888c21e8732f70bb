// Package stats provides the descriptive statistics, distribution
// divergences, ranking utilities, and hypothesis tests used throughout
// FedForecaster: moments for meta-features, entropy and
// KL divergence for cross-client heterogeneity, mean reciprocal rank
// for meta-model evaluation, and the Wilcoxon signed-rank test used in
// the paper's statistical validation (Section 5.2).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// Variance returns the population variance of xs, or NaN if xs is empty.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Skewness returns the Fisher-Pearson moment coefficient of skewness
// (g1). It returns 0 for constant series and NaN for empty input.
func Skewness(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, v := range xs {
		d := v - m
		m2 += float64(d * d)
		m3 += float64(d * d * d)
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 <= 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the excess kurtosis (g2 = m4/m2² − 3). It returns 0
// for constant series and NaN for empty input.
func Kurtosis(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, v := range xs {
		d := v - m
		d2 := float64(d * d)
		m2 += d2
		m4 += float64(d2 * d2)
	}
	n := float64(len(xs))
	m2 /= n
	m4 /= n
	if m2 <= 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// Summary bundles the aggregations Table 1 applies across clients.
type Summary struct {
	Sum, Avg, Min, Max, Std float64
}

// Summarize computes all Table 1 aggregations of xs at once.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{Sum: 0, Avg: math.NaN(), Min: math.NaN(), Max: math.NaN(), Std: math.NaN()}
	}
	return Summary{
		Sum: Sum(xs),
		Avg: Mean(xs),
		Min: Min(xs),
		Max: Max(xs),
		Std: StdDev(xs),
	}
}
