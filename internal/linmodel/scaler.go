// Package linmodel implements the linear forecasting algorithms of the
// paper's Table 2 search space — Lasso, LinearSVR, ElasticNetCV, Huber
// and Quantile regression — plus the multiclass Logistic
// Regression used elsewhere in the engine. All models standardize
// features internally (as scikit-learn pipelines typically do for
// these estimators) so hyper-parameter ranges transfer across datasets.
package linmodel

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

var errEmptyTraining = errors.New("linmodel: empty training set")

// scaler standardizes feature columns to zero mean and unit variance,
// remembering the statistics so prediction-time rows can be mapped
// into the same space. Constant columns are centred but not scaled.
type scaler struct {
	mean, std []float64
}

// fit learns the column statistics of x. Rows of different lengths
// are an error: a short row would bias its columns' means, and a long
// one has no column to land in.
func (s *scaler) fit(x [][]float64) error {
	if len(x) == 0 {
		return nil
	}
	if err := checkRectangular(x); err != nil {
		return err
	}
	p := len(x[0])
	buf := make([]float64, 2*p)
	s.mean, s.std = buf[:p:p], buf[p:]
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
			s.std[j] += float64(d * d)
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-12 {
			s.std[j] = 1
		}
	}
	return nil
}

// checkRectangular reports an error when a row of x is not as long as
// x[0].
func checkRectangular(x [][]float64) error {
	i := slices.IndexFunc(x, func(row []float64) bool { return len(row) != len(x[0]) })
	if i < 0 {
		return nil
	}
	return fmt.Errorf("linmodel: ragged design: row %d has %d features, row 0 has %d", i, len(x[i]), len(x[0]))
}

func (s *scaler) transform(x [][]float64) [][]float64 {
	return s.transformInto(x, 0, make([]float64, len(x)*len(s.mean)))
}

// transformInto standardizes x into rows of p+pad columns backed by buf,
// which must hold len(x)·(p+pad) values; the pad trailing columns of
// each row keep what buf held there.
func (s *scaler) transformInto(x [][]float64, pad int, buf []float64) [][]float64 {
	width := len(s.mean) + pad
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
		v += float64(c * ((row[j] - s.mean[j]) / s.std[j]))
	}
	return v
}

// centerer removes the target mean during fitting and restores it at
// prediction time.
type centerer struct{ mean float64 }

func (c *centerer) fit(y []float64) []float64 {
	return c.fitInto(y, make([]float64, len(y)))
}

// fitInto learns the target mean and writes the centred y into out,
// which must be as long as y, and returns it.
func (c *centerer) fitInto(y, out []float64) []float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	c.mean = s / float64(len(y))
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
