package neural

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// MLPClassifier is a multiclass feed-forward network with ReLU hidden
// layers and a softmax output, trained with Adam on cross-entropy —
// the MLP row of the Table 4 meta-model comparison.
type MLPClassifier struct {
	Hidden []int // hidden layer sizes, default [64, 32]
	Epochs int   // default 200
	Batch  int   // default 32
	LR     float64
	Seed   int64

	labels []string
	layers []*Linear
	// feature standardization
	mean, std []float64
	fitted    bool
}

// NewMLPClassifier returns an MLP with the given hidden sizes.
func NewMLPClassifier(hidden []int) *MLPClassifier {
	if len(hidden) == 0 {
		hidden = []int{64, 32}
	}
	return &MLPClassifier{Hidden: hidden, Epochs: 200, Batch: 32, LR: 1e-3}
}

// Fit trains the network on string labels.
func (m *MLPClassifier) Fit(x [][]float64, y []string) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("neural: empty training set")
	}
	// Label encoding.
	seen := map[string]bool{}
	m.labels = m.labels[:0]
	for _, l := range y {
		if !seen[l] {
			seen[l] = true
			m.labels = append(m.labels, l)
		}
	}
	sort.Strings(m.labels)
	idx := make(map[string]int, len(m.labels))
	for i, l := range m.labels {
		idx[l] = i
	}
	yi := make([]int, len(y))
	for i, l := range y {
		yi[i] = idx[l]
	}

	// Standardize features.
	p := len(x[0])
	m.mean = make([]float64, p)
	m.std = make([]float64, p)
	for _, row := range x {
		for j, v := range row {
			m.mean[j] += v
		}
	}
	for j := range m.mean {
		m.mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - m.mean[j]
			m.std[j] += d * d
		}
	}
	for j := range m.std {
		m.std[j] = math.Sqrt(m.std[j] / float64(len(x)))
		if m.std[j] < 1e-12 {
			m.std[j] = 1
		}
	}
	xs := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, p)
		for j, v := range row {
			r[j] = (v - m.mean[j]) / m.std[j]
		}
		xs[i] = r
	}

	rng := rand.New(rand.NewSource(m.Seed))
	sizes := append([]int{p}, m.Hidden...)
	sizes = append(sizes, len(m.labels))
	m.layers = m.layers[:0]
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	opt := NewAdam(m.LR, m.layers...)

	n := len(xs)
	order := rng.Perm(n)
	batch := m.Batch
	if batch <= 0 {
		batch = 32
	}
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			for _, l := range m.layers {
				l.ZeroGrad()
			}
			for _, i := range order[start:end] {
				probs, masks := m.forward(xs[i])
				// dL/dlogits for softmax CE.
				dlogits := append([]float64(nil), probs...)
				dlogits[yi[i]] -= 1
				m.backward(dlogits, masks)
			}
			opt.Step(end - start)
		}
	}
	m.fitted = true
	return nil
}

// forward runs one standardized sample and returns softmax probs and
// the ReLU masks per hidden layer.
func (m *MLPClassifier) forward(x []float64) ([]float64, [][]bool) {
	h := x
	masks := make([][]bool, 0, len(m.layers)-1)
	for i, l := range m.layers {
		h = l.Forward(h)
		if i+1 < len(m.layers) {
			var mask []bool
			h, mask = ReLUForward(h)
			masks = append(masks, mask)
		}
	}
	return Softmax(h), masks
}

func (m *MLPClassifier) backward(dlogits []float64, masks [][]bool) {
	d := dlogits
	for i := len(m.layers) - 1; i >= 0; i-- {
		d = m.layers[i].Backward(d)
		if i > 0 {
			d = ReLUBackward(d, masks[i-1])
		}
	}
}

func (m *MLPClassifier) probsFor(row []float64) []float64 {
	z := make([]float64, len(row))
	for j, v := range row {
		z[j] = (v - m.mean[j]) / m.std[j]
	}
	probs, _ := m.forward(z)
	return probs
}

// PredictProba returns per-row label probabilities.
func (m *MLPClassifier) PredictProba(x [][]float64) []map[string]float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("neural: MLPClassifier.Predict before Fit")
	}
	out := make([]map[string]float64, len(x))
	for i, row := range x {
		probs := m.probsFor(row)
		//lint:allow hotalloc each row's distribution map is returned to the caller; sharing one map would alias rows
		dist := make(map[string]float64, len(m.labels))
		for c, l := range m.labels {
			dist[l] = probs[c]
		}
		out[i] = dist
	}
	return out
}
