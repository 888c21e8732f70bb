package linmodel

import (
	"fedforecaster/internal/linalg"
)

// Ridge is L2-regularized least squares solved in closed form via the
// normal equations. It is the workhorse fallback model inside the
// engine (e.g. Prophet's trend fit and quick sanity baselines).
type Ridge struct {
	Alpha float64

	scaler    scaler
	center    centerer
	Coef      []float64
	Intercept float64
	fitted    bool
}

// NewRidge returns a ridge regressor with the given alpha.
func NewRidge(alpha float64) *Ridge { return &Ridge{Alpha: alpha} }

// Fit trains the model.
func (m *Ridge) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	if err := m.scaler.fit(x); err != nil {
		return err
	}
	xs := m.scaler.transform(x)
	yc := m.center.fit(y)
	a := linalg.FromRows(xs)
	coef, err := linalg.LeastSquares(a, yc, float64(m.Alpha*float64(len(xs)))+1e-10)
	if err != nil {
		return err
	}
	m.Coef, m.Intercept, m.fitted = coef, m.center.mean, true
	return nil
}

// Predict returns predictions for the given rows.
func (m *Ridge) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: Ridge.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}
