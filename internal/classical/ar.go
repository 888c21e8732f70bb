package classical

import (
	"errors"
	"math"

	"fedforecaster/internal/linalg"
)

// AR is an autoregressive model with optional differencing — the
// AR(p) / ARI(p, d) core of ARIMA, fitted by conditional least squares
// (the exact MLE under Gaussian innovations given the first p values).
type AR struct {
	P int // autoregressive order
	D int // differencing order

	coef      []float64 // AR coefficients φ_1..φ_p
	intercept float64
	history   []float64 // raw (undifferenced) tail needed to forecast
	fitted    bool
}

// NewAR returns an AR(p) model with d-th order differencing.
func NewAR(p, d int) *AR {
	if p < 1 {
		p = 1
	}
	if d < 0 {
		d = 0
	}
	return &AR{P: p, D: d}
}

// Fit estimates the coefficients by least squares on the differenced
// series.
func (m *AR) Fit(series []float64) error {
	z := difference(series, m.D)
	n := len(z)
	if n <= m.P+2 {
		return errTooShort
	}
	rows := n - m.P
	x := linalg.NewMatrix(rows, m.P+1)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := i + m.P
		row := x.Row(i)
		row[0] = 1
		for j := 1; j <= m.P; j++ {
			row[j] = z[t-j]
		}
		y[i] = z[t]
	}
	beta, err := linalg.LeastSquares(x, y, 1e-8)
	if err != nil {
		return err
	}
	m.intercept = beta[0]
	m.coef = beta[1:]
	// Keep enough raw history to reconstruct levels after differencing.
	keep := m.P + m.D + 1
	if keep > len(series) {
		keep = len(series)
	}
	m.history = append([]float64(nil), series[len(series)-keep:]...)
	m.fitted = true
	return nil
}

// Forecast returns the next horizon values (integrated back through
// the differencing).
func (m *AR) Forecast(horizon int) ([]float64, error) {
	if !m.fitted {
		return nil, errors.New("classical: Forecast before Fit")
	}
	raw := append([]float64(nil), m.history...)
	out := make([]float64, horizon)
	for h := 0; h < horizon; h++ {
		z := difference(raw, m.D)
		if len(z) < m.P {
			return nil, errTooShort
		}
		pred := m.intercept
		for j := 1; j <= m.P; j++ {
			pred += m.coef[j-1] * z[len(z)-j]
		}
		// Integrate: next level = pred plus the last d levels' partial
		// sums (undo differencing).
		level := pred
		tail := raw
		for k := m.D; k >= 1; k-- {
			dk := difference(tail, k-1)
			level += dk[len(dk)-1]
		}
		out[h] = level
		raw = append(raw, level)
	}
	return out, nil
}

// Update appends one observation to the model's history (coefficients
// stay fixed; use Fit to re-estimate).
func (m *AR) Update(y float64) error {
	if !m.fitted {
		return errors.New("classical: Update before Fit")
	}
	m.history = append(m.history, y)
	keep := m.P + m.D + 1
	if len(m.history) > 4*keep {
		m.history = m.history[len(m.history)-keep:]
	}
	return nil
}

// EvaluateOneStep computes rolling one-step MSE over valid.
func (m *AR) EvaluateOneStep(valid []float64) (float64, error) {
	if !m.fitted {
		return 0, errors.New("classical: Evaluate before Fit")
	}
	if len(valid) == 0 {
		return math.NaN(), nil
	}
	var sse float64
	for _, y := range valid {
		pred, err := m.Forecast(1)
		if err != nil {
			return 0, err
		}
		d := pred[0] - y
		sse += d * d
		if err := m.Update(y); err != nil {
			return 0, err
		}
	}
	return sse / float64(len(valid)), nil
}

// SelectAR chooses (p, d) by AIC over p ∈ 1..maxP and d ∈ 0..maxD on
// the series, then returns the fitted winner — the order-selection
// step of a Box-Jenkins workflow.
func SelectAR(series []float64, maxP, maxD int) (*AR, error) {
	if maxP < 1 {
		maxP = 1
	}
	if maxD < 0 {
		maxD = 0
	}
	bestAIC := math.Inf(1)
	var best *AR
	for d := 0; d <= maxD; d++ {
		for p := 1; p <= maxP; p++ {
			m := NewAR(p, d)
			if err := m.Fit(series); err != nil {
				continue
			}
			aic, err := m.aic(series)
			if err != nil {
				continue
			}
			if aic < bestAIC {
				bestAIC = aic
				best = m
			}
		}
	}
	if best == nil {
		return nil, errTooShort
	}
	return best, nil
}

// aic computes Akaike's criterion from in-sample residuals.
func (m *AR) aic(series []float64) (float64, error) {
	z := difference(series, m.D)
	n := len(z) - m.P
	if n < 2 {
		return 0, errTooShort
	}
	var rss float64
	for i := 0; i < n; i++ {
		t := i + m.P
		pred := m.intercept
		for j := 1; j <= m.P; j++ {
			pred += m.coef[j-1] * z[t-j]
		}
		d := z[t] - pred
		rss += d * d
	}
	sigma2 := rss / float64(n)
	if sigma2 < 1e-300 {
		sigma2 = 1e-300
	}
	k := float64(m.P + 2) // coefficients + intercept + variance
	return float64(n)*math.Log(sigma2) + 2*k, nil
}

func difference(xs []float64, d int) []float64 {
	out := append([]float64(nil), xs...)
	for k := 0; k < d; k++ {
		if len(out) < 2 {
			return nil
		}
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out
}
