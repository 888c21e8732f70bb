// Package tsa implements the classical time-series analysis primitives
// FedForecaster's meta-features and feature engineering depend on:
// autocorrelation and partial autocorrelation functions, the Augmented
// Dickey-Fuller stationarity test, an FFT periodogram with seasonality
// detection, differencing, and Higuchi fractal dimension estimation.
package tsa

import "math"

// ACF returns the sample autocorrelation function of xs for lags
// 0..maxLag inclusive (the biased estimator with 1/n normalization,
// matching statsmodels' default).
func ACF(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	var c0 float64
	for _, v := range xs {
		d := v - mean
		c0 += float64(d * d)
	}
	if c0 == 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag; lag++ {
		var c float64
		for t := lag; t < n; t++ {
			c += float64((xs[t] - mean) * (xs[t-lag] - mean))
		}
		out[lag] = c / c0
	}
	return out
}

// PACF returns the sample partial autocorrelation function for lags
// 0..maxLag inclusive, computed by the Durbin-Levinson recursion
// applied to the sample ACF. out[0] is 1 by convention.
func PACF(xs []float64, maxLag int) []float64 {
	acf := ACF(xs, maxLag)
	if len(acf) == 0 {
		return nil
	}
	maxLag = len(acf) - 1
	pacf := make([]float64, maxLag+1)
	pacf[0] = 1
	if maxLag == 0 {
		return pacf
	}
	// Durbin-Levinson: phi[k][j] coefficients of the AR(k) fit.
	phiPrev := make([]float64, maxLag+1)
	phiCur := make([]float64, maxLag+1)
	v := 1.0 // innovation variance (relative)
	phiPrev[1] = acf[1]
	pacf[1] = acf[1]
	v *= 1 - float64(acf[1]*acf[1])
	for k := 2; k <= maxLag; k++ {
		var num float64
		num = acf[k]
		for j := 1; j < k; j++ {
			num -= float64(phiPrev[j] * acf[k-j])
		}
		var phiKK float64
		if v > 1e-12 {
			phiKK = num / v
		}
		// Numerical safety: PACF values are correlations.
		if phiKK > 1 {
			phiKK = 1
		} else if phiKK < -1 {
			phiKK = -1
		}
		for j := 1; j < k; j++ {
			phiCur[j] = phiPrev[j] - float64(phiKK*phiPrev[k-j])
		}
		phiCur[k] = phiKK
		pacf[k] = phiKK
		v *= 1 - float64(phiKK*phiKK)
		copy(phiPrev[:k+1], phiCur[:k+1])
	}
	return pacf
}

// SignificantLags returns the 1-based lags whose |PACF| exceeds the
// 95% confidence band ±1.96/√n, scanning lags 1..maxLag. This drives
// both the "Significant Lags using pACF" meta-feature and the lag
// feature construction in the feature-engineering phase.
func SignificantLags(xs []float64, maxLag int) []int {
	n := len(xs)
	if n < 3 {
		return nil
	}
	pacf := PACF(xs, maxLag)
	band := 1.96 / math.Sqrt(float64(n))
	var lags []int
	for lag := 1; lag < len(pacf); lag++ {
		if math.Abs(pacf[lag]) > band {
			lags = append(lags, lag)
		}
	}
	return lags
}

// InsignificantGapCount returns the number of insignificant lags lying
// strictly between the first and last significant lags (a Table 1
// meta-feature describing how "gappy" the partial autocorrelation
// structure is).
func InsignificantGapCount(sigLags []int) int {
	if len(sigLags) < 2 {
		return 0
	}
	first, last := sigLags[0], sigLags[len(sigLags)-1]
	span := last - first - 1
	interior := len(sigLags) - 2
	return span - interior
}

// Difference returns the order-d differenced series (len(xs)−d values).
func Difference(xs []float64, d int) []float64 {
	out := append([]float64(nil), xs...)
	for k := 0; k < d; k++ {
		if len(out) < 2 {
			return nil
		}
		// In place on the private copy: each write lands one slot
		// behind the reads, so one buffer serves every order.
		for i := 1; i < len(out); i++ {
			out[i-1] = out[i] - out[i-1]
		}
		out = out[:len(out)-1]
	}
	return out
}
