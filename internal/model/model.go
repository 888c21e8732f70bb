// Package model defines the shared contracts of the learning stack:
// the Regressor and Classifier interfaces every algorithm in the zoo
// implements, the supervised Dataset container built by the
// feature-engineering phase, and the MSE metric the paper reports.
package model

import (
	"fmt"
	"math"
)

// Regressor is a trainable regression model. Fit must be callable more
// than once (refitting resets state). Predict panics if called before
// a successful Fit.
type Regressor interface {
	// Fit trains on X (n×p feature rows) and y (n targets).
	Fit(x [][]float64, y []float64) error
	// Predict returns one prediction per row of x.
	Predict(x [][]float64) []float64
}

// Classifier is a trainable multi-class classifier over string labels.
type Classifier interface {
	// Fit trains on X (n×p feature rows) and labels y.
	Fit(x [][]float64, y []string) error
	// PredictProba returns, per row, a map from label to probability.
	PredictProba(x [][]float64) []map[string]float64
}

// Dataset is a supervised learning view of a time series: engineered
// feature rows X aligned with regression targets Y, plus the feature
// names for selection and diagnostics.
type Dataset struct {
	X     [][]float64
	Y     []float64
	Names []string
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature dimensionality (0 when empty).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// SelectColumns returns a new dataset keeping only the listed feature
// column indices, in order.
func (d *Dataset) SelectColumns(cols []int) *Dataset {
	out := &Dataset{Y: d.Y, Names: make([]string, len(cols)), X: make([][]float64, len(d.X))}
	for j, c := range cols {
		if c < 0 || c >= d.NumFeatures() {
			//lint:allow panicfree shape mismatch is a programmer error; the pipeline constructs matched slices
			panic(fmt.Sprintf("model: column %d out of range (p=%d)", c, d.NumFeatures()))
		}
		if c < len(d.Names) {
			out.Names[j] = d.Names[c]
		}
	}
	for i, row := range d.X {
		nr := make([]float64, len(cols))
		for j, c := range cols {
			nr[j] = row[c]
		}
		out.X[i] = nr
	}
	return out
}

// Split divides the dataset chronologically at the given row.
func (d *Dataset) Split(at int) (train, valid *Dataset) {
	if at < 0 {
		at = 0
	}
	if at > len(d.X) {
		at = len(d.X)
	}
	return &Dataset{X: d.X[:at], Y: d.Y[:at], Names: d.Names},
		&Dataset{X: d.X[at:], Y: d.Y[at:], Names: d.Names}
}

// MSE returns the mean squared error between predictions and targets.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		//lint:allow panicfree shape mismatch is a programmer error; the pipeline constructs matched slices
		panic(fmt.Sprintf("model: MSE length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += float64(d * d)
	}
	return s / float64(len(pred))
}
