package stats

import "math"

// Histogram bins xs into nbins equal-width bins over [lo, hi] and
// returns normalized frequencies (a probability vector). Values outside
// the range are clamped into the boundary bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []float64 {
	p := make([]float64, nbins)
	if len(xs) == 0 || nbins <= 0 {
		return p
	}
	width := (hi - lo) / float64(nbins)
	if width <= 0 {
		// Degenerate range: all mass in the first bin.
		p[0] = 1
		return p
	}
	for _, v := range xs {
		b := int((v - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		p[b]++
	}
	n := float64(len(xs))
	for i := range p {
		p[i] /= n
	}
	return p
}

// KLDivergence returns the Kullback-Leibler divergence D(p‖q) in nats.
// Both inputs must be probability vectors of equal length. Zero bins
// are smoothed with a small epsilon so the divergence stays finite, as
// is standard when comparing empirical client distributions.
func KLDivergence(p, q []float64) float64 {
	const eps = 1e-10
	var d float64
	for i := range p {
		pi := p[i] + eps
		qi := q[i] + eps
		d += float64(pi * math.Log(pi/qi))
	}
	if d < 0 {
		d = 0 // smoothing can produce tiny negatives
	}
	return d
}

// BinaryEntropy returns the entropy (nats) of a Bernoulli distribution
// with success probability p. Used for the "Target Stationarity"
// meta-feature, whose aggregation across clients is the entropy of the
// stationary/non-stationary flags.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return float64(-p*math.Log(p)) - float64((1-p)*math.Log(1-p))
}
