package linmodel

import (
	"math"
	"sort"
)

// LogisticRegression is a multiclass (softmax) logistic-regression
// classifier trained by full-batch gradient descent with L2
// regularization, used in the Table 4 meta-model comparison.
type LogisticRegression struct {
	C       float64 // inverse regularization strength (sklearn convention)
	MaxIter int
	LR      float64

	scaler  scaler
	labels  []string
	weights [][]float64 // class × (p+1), last column is the bias
	fitted  bool
}

// NewLogisticRegression returns a classifier with the given C.
func NewLogisticRegression(c float64) *LogisticRegression {
	if c <= 0 {
		c = 1
	}
	return &LogisticRegression{C: c, MaxIter: 300, LR: 0.5}
}

// Fit trains the model on string labels.
func (m *LogisticRegression) Fit(x [][]float64, y []string) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	if err := m.scaler.fit(x); err != nil {
		return err
	}
	m.labels = uniqueLabels(y)
	labelIdx := make(map[string]int, len(m.labels))
	for i, l := range m.labels {
		labelIdx[l] = i
	}
	xs := m.scaler.transform(x)
	n, p := len(xs), len(xs[0])
	k := len(m.labels)
	yi := make([]int, n)
	for i, label := range y {
		yi[i] = labelIdx[label]
	}

	m.weights = make([][]float64, k)
	for c := range m.weights {
		m.weights[c] = make([]float64, p+1)
	}
	lambda := 1 / (m.C * float64(n))
	probs := make([]float64, k)
	grads := make([][]float64, k)
	for c := range grads {
		grads[c] = make([]float64, p+1)
	}
	for iter := 0; iter < m.MaxIter; iter++ {
		for c := range grads {
			for j := range grads[c] {
				grads[c][j] = 0
			}
		}
		for i := 0; i < n; i++ {
			m.softmaxRow(xs[i], probs)
			for c := 0; c < k; c++ {
				g := probs[c]
				if c == yi[i] {
					g -= 1
				}
				gc := grads[c]
				for j, v := range xs[i] {
					gc[j] += float64(g * v)
				}
				gc[p] += g
			}
		}
		lr := m.LR / (1 + float64(0.01*float64(iter)))
		for c := 0; c < k; c++ {
			wc := m.weights[c]
			gc := grads[c]
			for j := 0; j <= p; j++ {
				grad := gc[j] / float64(n)
				if j < p { // don't regularize the bias
					grad += float64(lambda * wc[j])
				}
				wc[j] -= float64(lr * grad)
			}
		}
	}
	m.fitted = true
	return nil
}

func (m *LogisticRegression) softmaxRow(z []float64, out []float64) {
	p := len(z)
	maxLogit := math.Inf(-1)
	for c, wc := range m.weights {
		var v float64
		for j, x := range z {
			v += float64(wc[j] * x)
		}
		v += wc[p]
		out[c] = v
		if v > maxLogit {
			maxLogit = v
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(out[c] - maxLogit)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// PredictProba returns per-row label probabilities.
func (m *LogisticRegression) PredictProba(x [][]float64) []map[string]float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: LogisticRegression.Predict before Fit")
	}
	out := make([]map[string]float64, len(x))
	probs := make([]float64, len(m.labels))
	for i, row := range x {
		z := m.scaler.transformRow(row)
		m.softmaxRow(z, probs)
		//lint:allow hotalloc one probability map per row is the API's result type
		dist := make(map[string]float64, len(m.labels))
		for c, l := range m.labels {
			dist[l] = probs[c]
		}
		out[i] = dist
	}
	return out
}

// uniqueLabels returns the sorted distinct labels of y.
func uniqueLabels(y []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range y {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}
