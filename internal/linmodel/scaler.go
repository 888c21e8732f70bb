// Package linmodel implements the linear forecasting algorithms of the
// paper's Table 2 search space — Lasso, LinearSVR, ElasticNetCV, Huber
// and Quantile regression — plus Ridge and multiclass Logistic
// Regression used elsewhere in the engine. All models standardize
// features internally (as scikit-learn pipelines typically do for
// these estimators) so hyper-parameter ranges transfer across datasets.
package linmodel

import (
	"errors"
	"math"
)

var errEmptyTraining = errors.New("linmodel: empty training set")

// scaler standardizes feature columns to zero mean and unit variance,
// remembering the statistics so prediction-time rows can be mapped
// into the same space. Constant columns are centred but not scaled.
type scaler struct {
	mean, std []float64
}

func (s *scaler) fit(x [][]float64) {
	if len(x) == 0 {
		return
	}
	p := len(x[0])
	s.mean = make([]float64, p)
	s.std = make([]float64, p)
	n := float64(len(x))
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-12 {
			s.std[j] = 1
		}
	}
}

func (s *scaler) transform(x [][]float64) [][]float64 {
	return s.transformPadded(x, 0)
}

// transformPadded standardizes x into rows of p+pad columns, all backed
// by one allocation; the pad trailing columns of each row are zero.
func (s *scaler) transformPadded(x [][]float64, pad int) [][]float64 {
	width := len(s.mean) + pad
	buf := make([]float64, len(x)*width)
	out := make([][]float64, len(x))
	for i, row := range x {
		r := buf[i*width : (i+1)*width : (i+1)*width]
		for j, v := range row {
			r[j] = (v - s.mean[j]) / s.std[j]
		}
		out[i] = r
	}
	return out
}

// transformCols standardizes x into one column-major slice: column j
// occupies out[j*n:(j+1)*n], so a coordinate-descent sweep over feature
// j reads contiguous memory.
func (s *scaler) transformCols(x [][]float64) []float64 {
	n := len(x)
	out := make([]float64, n*len(s.mean))
	for i, row := range x {
		for j, v := range row {
			out[j*n+i] = (v - s.mean[j]) / s.std[j]
		}
	}
	return out
}

func (s *scaler) transformRow(row []float64) []float64 {
	r := make([]float64, len(row))
	for j, v := range row {
		r[j] = (v - s.mean[j]) / s.std[j]
	}
	return r
}

// dotRow returns coef·z, where z is row standardized by s, without
// materializing z.
func (s *scaler) dotRow(coef, row []float64) float64 {
	var v float64
	for j, c := range coef {
		v += c * ((row[j] - s.mean[j]) / s.std[j])
	}
	return v
}

// centerer removes the target mean during fitting and restores it at
// prediction time.
type centerer struct{ mean float64 }

func (c *centerer) fit(y []float64) []float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	c.mean = s / float64(len(y))
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = v - c.mean
	}
	return out
}

// linPredict evaluates coef·x + intercept over standardized rows.
func linPredict(s *scaler, coef []float64, intercept float64, x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = s.dotRow(coef, row) + intercept
	}
	return out
}
