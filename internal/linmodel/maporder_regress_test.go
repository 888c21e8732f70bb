package linmodel

import "testing"

// TestPredictUniformProba: a zero-weight model emits an exact
// three-way tie, one probability per label.
func TestPredictUniformProba(t *testing.T) {
	m := &LogisticRegression{
		scaler:  scaler{mean: []float64{0}, std: []float64{1}},
		labels:  []string{"b", "a", "c"},
		weights: [][]float64{{0, 0}, {0, 0}, {0, 0}},
		fitted:  true,
	}
	dist := m.PredictProba([][]float64{{1.5}})[0]
	if len(dist) != 3 {
		t.Fatalf("PredictProba has %d labels, want 3", len(dist))
	}
	for l, p := range dist {
		if p != dist["a"] {
			t.Fatalf("probabilities not tied: %q=%v vs a=%v", l, p, dist["a"])
		}
	}
}
