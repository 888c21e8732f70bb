package tree

// Test-only accessors: the tree tests and the golden digests read
// tree sizes, importances and single-row class predictions.

// PredictOne returns the majority class index for a single row.
func (t *Classifier) PredictOne(row []float64) int {
	dist := t.PredictProbaOne(row)
	best := 0
	for c, p := range dist {
		if p > dist[best] {
			best = c
		}
	}
	return best
}

// FeatureImportances returns normalized Gini importances.
func (t *Classifier) FeatureImportances() []float64 {
	return normalizeImportances(t.importances)
}

// NumNodes reports the size of the fitted tree.
func (t *Classifier) NumNodes() int { return len(t.nodes) }

// FeatureImportances returns normalized gain importances.
func (t *GradTree) FeatureImportances() []float64 {
	return normalizeImportances(t.importances)
}

// NumNodes reports the size of the fitted tree.
func (t *GradTree) NumNodes() int { return len(t.nodes) }

// NumNodes reports the size of the fitted tree.
func (t *Regressor) NumNodes() int { return len(t.nodes) }
