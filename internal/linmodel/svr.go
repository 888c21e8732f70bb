package linmodel

import (
	"math"
	"math/rand"

	"fedforecaster/internal/linalg"
)

// LinearSVR fits a linear support-vector regressor with the
// ε-insensitive loss and L2 regularization:
//
//	min ½‖w‖² + C·Σ max(0, |yᵢ − w·xᵢ − b| − ε)
//
// trained by averaged stochastic subgradient descent (Pegasos-style
// step sizes). (C, epsilon) match Table 2's LinearSVR row.
type LinearSVR struct {
	C       float64
	Epsilon float64
	Epochs  int
	Seed    int64

	scaler    scaler
	center    centerer
	yScale    float64
	Coef      []float64
	Intercept float64
	fitted    bool
}

// NewLinearSVR returns a linear SVR with the given C and epsilon.
func NewLinearSVR(c, epsilon float64) *LinearSVR {
	if c <= 0 {
		c = 1
	}
	if epsilon < 0 {
		epsilon = 0
	}
	return &LinearSVR{C: c, Epsilon: epsilon, Epochs: 30}
}

// Fit trains the model.
func (m *LinearSVR) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	if err := m.scaler.fit(x); err != nil {
		return err
	}
	xs := m.scaler.transform(x)
	yc := m.center.fit(y)
	// Standardize the target as well: Table 2's ε ∈ [0.01, 0.1] is
	// meaningful in unit-variance target space, and it keeps the
	// Pegasos step sizes scale-free. Predictions are mapped back.
	var yVar float64
	for _, v := range yc {
		yVar += float64(v * v)
	}
	yStd := 1.0
	if len(yc) > 0 {
		yStd = yVar / float64(len(yc))
	}
	if yStd > 0 {
		yStd = math.Sqrt(yStd)
	} else {
		yStd = 1
	}
	for i := range yc {
		yc[i] /= yStd
	}
	m.yScale = yStd
	n, p := len(xs), len(xs[0])

	// Pegasos parameterization: λ = 1/(C·n).
	lambda := 1.0 / (m.C * float64(n))
	w := make([]float64, p)
	b := 0.0
	avgW := make([]float64, p)
	avgB := 0.0
	var avgCount float64

	// The target scale matters for the ε-tube; rescale ε to the data.
	rng := rand.New(rand.NewSource(m.Seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Start the step counter at n+1 so the first learning rates are
	// bounded by ≈ C instead of C·n (standard Pegasos warm offset).
	t := n + 1
	totalSteps := m.Epochs*n + n
	swap := func(a, c int) { order[a], order[c] = order[c], order[a] }
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(n, swap)
		for _, i := range order {
			// Pegasos step: η_t = 1/(λt); stochastic subgradient of
			// λ/2‖w‖² + loss(i) is λw + g·xᵢ with g ∈ {−1, 0, 1}.
			lr := 1 / (lambda * float64(t))
			pred := linalg.Dot(xs[i], w) + b
			r := yc[i] - pred
			var g float64
			if r > m.Epsilon {
				g = -1
			} else if r < -m.Epsilon {
				g = 1
			}
			decay := 1 - float64(lr*lambda) // = 1 − 1/t
			if decay < 0 {
				decay = 0
			}
			for j := range w {
				w[j] *= decay
			}
			if g != 0 {
				for j := range w {
					w[j] -= float64(lr * g * xs[i][j])
				}
				b -= float64(lr * g)
			}
			t++
			// Average the second half of the trajectory.
			if t > totalSteps/2 {
				avgCount++
				for j := range w {
					avgW[j] += (w[j] - avgW[j]) / avgCount
				}
				avgB += (b - avgB) / avgCount
			}
		}
	}
	if avgCount > 0 {
		w, b = avgW, avgB
	}
	// Undo the target standardization.
	for j := range w {
		w[j] *= m.yScale
	}
	m.Coef = w
	m.Intercept = float64(b*m.yScale) + m.center.mean
	m.fitted = true
	return nil
}

// Predict returns predictions for the given rows.
func (m *LinearSVR) Predict(x [][]float64) []float64 {
	if !m.fitted {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("linmodel: LinearSVR.Predict before Fit")
	}
	return linPredict(&m.scaler, m.Coef, m.Intercept, x)
}
