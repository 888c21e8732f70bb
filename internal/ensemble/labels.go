// Package ensemble implements the tree-ensemble family used by
// FedForecaster: random forests and extra trees (feature selection and
// the meta-model), classical gradient boosting, an XGBoost-style
// second-order booster (the Table 2 "XGB Regressor"), a LightGBM-style
// leaf-wise histogram booster, and a CatBoost-style oblivious-tree
// booster (both for the Table 4 meta-model comparison).
package ensemble

import (
	"errors"
	"sort"
)

var errEmptyTraining = errors.New("ensemble: empty training set")

// labelEncoder maps string class labels to dense integer indices.
type labelEncoder struct {
	labels []string
	index  map[string]int
}

func newLabelEncoder(y []string) *labelEncoder {
	seen := map[string]bool{}
	var labels []string
	for _, l := range y {
		if !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	idx := make(map[string]int, len(labels))
	for i, l := range labels {
		idx[l] = i
	}
	return &labelEncoder{labels: labels, index: idx}
}

func (e *labelEncoder) encode(y []string) []int {
	out := make([]int, len(y))
	for i, l := range y {
		out[i] = e.index[l]
	}
	return out
}

func (e *labelEncoder) numClasses() int { return len(e.labels) }

// distToMap converts a dense class distribution to the Classifier
// interface's map form.
func (e *labelEncoder) distToMap(dist []float64) map[string]float64 {
	out := make(map[string]float64, len(dist))
	for c, p := range dist {
		out[e.labels[c]] = p
	}
	return out
}
