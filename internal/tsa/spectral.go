package tsa

import (
	"math"
	"math/cmplx"
	"sort"
)

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley-Tukey algorithm. The input is zero-padded to the next
// power of two.
func FFT(x []complex128) []complex128 {
	n := 1
	for n < len(x) {
		n <<= 1
	}
	a := make([]complex128, n)
	copy(a, x)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := cmul(a[i+j+half], w)
				a[i+j] = u + v
				a[i+j+half] = u - v
				w = cmul(w, wl)
			}
		}
	}
	return a
}

// cmul is complex128 multiplication spelled out with each real product
// rounded: the built-in operator computes the same four products but
// lets the compiler fuse them into the sum on architectures with FMA.
func cmul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

// Periodogram returns frequencies (cycles per sample, in (0, 0.5]) and
// the corresponding spectral power of the mean-removed series. The DC
// component is excluded.
func Periodogram(xs []float64) (freqs, power []float64) {
	n := len(xs)
	if n < 4 {
		return nil, nil
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	cx := make([]complex128, n)
	for i, v := range xs {
		cx[i] = complex(v-mean, 0)
	}
	spec := FFT(cx)
	nfft := len(spec)
	half := nfft / 2
	freqs = make([]float64, 0, half)
	power = make([]float64, 0, half)
	for k := 1; k <= half; k++ {
		f := float64(k) / float64(nfft)
		p := cmplx.Abs(spec[k])
		freqs = append(freqs, f)
		power = append(power, p*p/float64(n))
	}
	return freqs, power
}

// SeasonalComponent is one detected seasonality: its period in samples
// and its relative spectral strength (power normalized by total power).
type SeasonalComponent struct {
	Period   int
	Strength float64
}

// DetectSeasonalities finds up to maxComponents seasonal periods by
// locating local maxima of the periodogram that exceed meanPower×
// threshold, collapsing near-duplicate periods. Periods of 1 sample or
// longer than half the series are discarded. Results are ordered by
// descending strength.
func DetectSeasonalities(xs []float64, maxComponents int) []SeasonalComponent {
	freqs, power := Periodogram(xs)
	if len(freqs) == 0 {
		return nil
	}
	var total float64
	for _, p := range power {
		total += p
	}
	if total <= 0 {
		return nil
	}
	meanP := total / float64(len(power))
	// A peak must both stand out locally (threshold × mean power) and
	// carry a material share of total power (strengthFloor); white
	// noise routinely produces 4-6× mean bins that carry ~1% of power.
	const (
		threshold     = 4.0
		strengthFloor = 0.02
	)

	type peak struct {
		period   int
		strength float64
	}
	// At most every other bin is a local maximum.
	peaks := make([]peak, 0, len(power)/2)
	for i := 1; i < len(power)-1; i++ {
		if power[i] <= power[i-1] || power[i] < power[i+1] {
			continue
		}
		if power[i] < threshold*meanP || power[i] < strengthFloor*total {
			continue
		}
		period := int(math.Round(1 / freqs[i]))
		if period < 2 || period > len(xs)/2 {
			continue
		}
		peaks = append(peaks, peak{period, power[i] / total})
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].strength > peaks[j].strength })

	out := make([]SeasonalComponent, 0, maxComponents)
	for _, p := range peaks {
		dup := false
		for _, o := range out {
			// Collapse peaks within 10% of an accepted period, or exact
			// low-order harmonics (ratio 2..4 within 5%).
			ratio := float64(p.period) / float64(o.Period)
			if ratio < 1 {
				ratio = 1 / ratio
			}
			r := math.Round(ratio)
			if (r == 1 && math.Abs(ratio-1) < 0.1) ||
				(r >= 2 && r <= 4 && math.Abs(ratio-r) < 0.05) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, SeasonalComponent{Period: p.period, Strength: p.strength})
		if len(out) >= maxComponents {
			break
		}
	}
	return out
}

// HiguchiFD estimates the fractal dimension of xs with Higuchi's
// method over curve scales k = 1..kMax. Values near 1 indicate smooth
// (trending) series; values near 2 indicate noise-like series. This is
// the "Fractal dimension analysis of target" meta-feature.
func HiguchiFD(xs []float64, kMax int) float64 {
	n := len(xs)
	if n < 10 {
		return math.NaN()
	}
	if kMax < 2 {
		kMax = 2
	}
	if kMax > n/2 {
		kMax = n / 2
	}
	logk := make([]float64, 0, kMax)
	logl := make([]float64, 0, kMax)
	for k := 1; k <= kMax; k++ {
		var lk float64
		for m := 0; m < k; m++ {
			var lm float64
			steps := (n - 1 - m) / k
			if steps < 1 {
				continue
			}
			for i := 1; i <= steps; i++ {
				lm += math.Abs(xs[m+i*k] - xs[m+(i-1)*k])
			}
			norm := float64(n-1) / (float64(steps) * float64(k))
			lk += lm * norm / float64(k)
		}
		lk /= float64(k)
		if lk <= 0 {
			continue
		}
		logk = append(logk, math.Log(1/float64(k)))
		logl = append(logl, math.Log(lk))
	}
	if len(logk) < 2 {
		return math.NaN()
	}
	// Least-squares slope of log L(k) against log(1/k).
	var mx, my float64
	for i := range logk {
		mx += logk[i]
		my += logl[i]
	}
	mx /= float64(len(logk))
	my /= float64(len(logl))
	var num, den float64
	for i := range logk {
		num += float64((logk[i] - mx) * (logl[i] - my))
		den += float64((logk[i] - mx) * (logk[i] - mx))
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// TrailingMovingAverage smooths xs with a trailing window: out[i] is
// the mean of xs[max(0,i-window+1) .. i]. Unlike a centred window it
// never reads ahead of index i, so it is safe inside forecasting
// feature pipelines where future values must stay unseen.
// The leading partial windows average over the available prefix, so
// the output keeps the input's length.
func TrailingMovingAverage(xs []float64, window int) []float64 {
	n := len(xs)
	out := make([]float64, n)
	if window < 1 {
		window = 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += xs[i]
		if i >= window {
			sum -= xs[i-window]
		}
		w := i + 1
		if w > window {
			w = window
		}
		out[i] = sum / float64(w)
	}
	return out
}
