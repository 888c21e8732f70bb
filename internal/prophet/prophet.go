// Package prophet implements a lightweight version of the Prophet
// trend model (Taylor & Letham, 2018): a piecewise-linear or
// saturating-logistic growth curve with automatically placed
// changepoints, fitted by ridge-regularized least squares. The
// feature-engineering phase (Section 4.2.1) uses only the fitted trend
// component g(t), so seasonality and holiday terms are out of scope
// here — seasonal structure is handled by the Fourier features built
// from the globally detected seasonalities.
package prophet

import (
	"errors"
	"math"

	"fedforecaster/internal/linalg"
)

// Growth selects the trend family.
type Growth int

// Supported growth families.
const (
	Linear Growth = iota
	Logistic
)

// Config controls the trend fit.
type Config struct {
	Growth          Growth
	NumChangepoints int     // default 10
	ChangepointMax  float64 // fraction of history where changepoints may lie, default 0.8
	Ridge           float64 // regularization on changepoint deltas, default 0.5 (≈ Prophet's sparse prior)
	Capacity        float64 // logistic capacity; ≤ 0 means auto (1.2 × max|y|)
}

func (c Config) normalized() Config {
	if c.NumChangepoints <= 0 {
		c.NumChangepoints = 10
	}
	if c.ChangepointMax <= 0 || c.ChangepointMax > 1 {
		c.ChangepointMax = 0.8
	}
	if c.Ridge <= 0 {
		c.Ridge = 0.5
	}
	return c
}

// Model is a fitted trend model.
type Model struct {
	cfg           Config
	changepoints  []float64 // normalized times in (0, 1)
	k             float64   // base slope
	m             float64   // offset
	deltas        []float64 // slope adjustments at changepoints
	targetMean    float64   // removed before the ridge solve so the intercept is unregularized
	capacity      float64   // logistic capacity above the floor (data units)
	logisticFloor float64   // lower asymptote of the logistic curve
	n             int       // training length
	fitted        bool
}

var errTooShort = errors.New("prophet: series too short to fit a trend")

// Fit estimates the trend of ys (indexed 0..n−1).
func Fit(ys []float64, cfg Config) (*Model, error) {
	cfg = cfg.normalized()
	n := len(ys)
	if n < 5 {
		return nil, errTooShort
	}
	m := &Model{cfg: cfg, n: n}

	// Changepoints uniformly over the first ChangepointMax of history.
	ncp := cfg.NumChangepoints
	if ncp > n/3 {
		ncp = n / 3
	}
	m.changepoints = make([]float64, ncp)
	for i := range m.changepoints {
		m.changepoints[i] = cfg.ChangepointMax * float64(i+1) / float64(ncp+1)
	}

	target := ys
	if cfg.Growth == Logistic {
		// Transform through the inverse logistic so the piecewise-linear
		// machinery fits the latent growth curve. Shift data to be
		// positive first.
		m.capacity = cfg.Capacity
		lo, hi := ys[0], ys[0]
		for _, v := range ys {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if m.capacity <= 0 {
			m.capacity = hi + 0.2*(hi-lo) + 1e-9
		}
		floor := lo - 0.2*(hi-lo) - 1e-9
		m.capacity -= floor
		m.logisticFloor = floor
		target = make([]float64, n)
		for i, v := range ys {
			frac := (v - floor) / m.capacity
			if frac < 1e-6 {
				frac = 1e-6
			}
			if frac > 1-1e-6 {
				frac = 1 - 1e-6
			}
			target[i] = math.Log(frac / (1 - frac))
		}
	}

	// Design matrix: [1, t, a_1(t)·(t−s_1), ..., a_q(t)·(t−s_q)] with
	// t normalized to [0, 1].
	cols := 2 + len(m.changepoints)
	x := linalg.NewMatrix(n, cols)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		row := x.Row(i)
		row[0] = 1
		row[1] = t
		for j, s := range m.changepoints {
			if t > s {
				row[2+j] = t - s
			}
		}
	}
	// Centre the target so the uniform ridge does not shrink the level
	// of the series — only slope and changepoint deltas are penalized
	// in effect (the centred intercept is ≈ 0 and harmless to shrink).
	var mean float64
	for _, v := range target {
		mean += v
	}
	mean /= float64(n)
	centred := make([]float64, n)
	for i, v := range target {
		centred[i] = v - mean
	}
	m.targetMean = mean
	beta, err := linalg.LeastSquares(x, centred, cfg.Ridge)
	if err != nil {
		return nil, err
	}
	m.m = beta[0]
	m.k = beta[1]
	m.deltas = beta[2:]
	m.fitted = true
	return m, nil
}

// TrendAt evaluates the trend at (possibly out-of-sample) index i.
func (m *Model) TrendAt(i int) float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("prophet: TrendAt before Fit")
	}
	t := float64(i) / float64(m.n-1)
	g := m.targetMean + m.m + m.k*t
	for j, s := range m.changepoints {
		if t > s {
			g += m.deltas[j] * (t - s)
		}
	}
	if m.cfg.Growth == Logistic {
		return m.logisticFloor + m.capacity/(1+math.Exp(-g))
	}
	return g
}
