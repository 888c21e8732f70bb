package neural

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearForwardBackwardGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 3, rng)
	x := []float64{0.5, -1, 2, 0.3}
	// Loss = sum(out²)/2; analytic gradient vs finite differences.
	out := l.Forward(x)
	dout := append([]float64(nil), out...)
	l.ZeroGrad()
	dx := l.Backward(dout)

	const eps = 1e-6
	// Check dL/dW numerically for a few entries.
	for _, wi := range []int{0, 5, 11} {
		orig := l.W[wi]
		l.W[wi] = orig + eps
		lossP := halfSq(l.Forward(x))
		l.W[wi] = orig - eps
		lossM := halfSq(l.Forward(x))
		l.W[wi] = orig
		num := (lossP - lossM) / (2 * eps)
		if math.Abs(num-l.GradW[wi]) > 1e-5 {
			t.Errorf("GradW[%d] = %v, numeric %v", wi, l.GradW[wi], num)
		}
	}
	// Check dL/dx numerically.
	for xi := range x {
		orig := x[xi]
		x[xi] = orig + eps
		lossP := halfSq(l.Forward(x))
		x[xi] = orig - eps
		lossM := halfSq(l.Forward(x))
		x[xi] = orig
		num := (lossP - lossM) / (2 * eps)
		if math.Abs(num-dx[xi]) > 1e-5 {
			t.Errorf("dx[%d] = %v, numeric %v", xi, dx[xi], num)
		}
	}
}

func halfSq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s / 2
}

func TestReLU(t *testing.T) {
	out, mask := ReLUForward([]float64{-1, 0, 2})
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("relu out = %v", out)
	}
	dx := ReLUBackward([]float64{5, 5, 5}, mask)
	if dx[0] != 0 || dx[1] != 0 || dx[2] != 5 {
		t.Fatalf("relu dx = %v", dx)
	}
}

func TestSoftmaxStable(t *testing.T) {
	p := Softmax([]float64{1000, 1001, 1002})
	var s float64
	for _, v := range p {
		if math.IsNaN(v) {
			t.Fatal("softmax NaN on large logits")
		}
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("softmax sums to %v", s)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatal("softmax ordering wrong")
	}
}

func TestAdamReducesQuadraticLoss(t *testing.T) {
	// Minimize ½‖Wx − target‖² for a fixed x: Adam must drive loss down.
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(3, 2, rng)
	opt := NewAdam(0.05, l)
	x := []float64{1, 2, 3}
	target := []float64{5, -4}
	loss := func() float64 {
		out := l.Forward(x)
		var s float64
		for i := range out {
			d := out[i] - target[i]
			s += d * d
		}
		return s / 2
	}
	initial := loss()
	for iter := 0; iter < 300; iter++ {
		out := l.Forward(x)
		dout := make([]float64, len(out))
		for i := range out {
			dout[i] = out[i] - target[i]
		}
		l.ZeroGrad()
		l.Backward(dout)
		opt.Step(1)
	}
	if final := loss(); final > initial*0.01 {
		t.Errorf("Adam: loss %v → %v, want ≫ reduction", initial, final)
	}
}

func TestMLPLearnsXor(t *testing.T) {
	// XOR is not linearly separable; requires working hidden layers.
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []string{"a", "b", "b", "a"}
	// Replicate to give SGD enough batches.
	var xs [][]float64
	var ys []string
	for rep := 0; rep < 50; rep++ {
		xs = append(xs, x...)
		ys = append(ys, y...)
	}
	m := NewMLPClassifier([]int{16})
	m.Epochs = 300
	m.Seed = 3
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	pred := argmaxLabels(m.PredictProba(x))
	for i := range pred {
		if pred[i] != y[i] {
			t.Fatalf("XOR pred = %v, want %v", pred, y)
		}
	}
}

func TestMLPMulticlassProba(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	x := make([][]float64, n)
	y := make([]string, n)
	labels := []string{"u", "v", "w"}
	for i := range x {
		c := i % 3
		x[i] = []float64{float64(c) + 0.2*rng.NormFloat64(), rng.NormFloat64()}
		y[i] = labels[c]
	}
	m := NewMLPClassifier([]int{32})
	m.Epochs = 150
	m.Seed = 5
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range argmaxLabels(m.PredictProba(x)) {
		if p == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Errorf("MLP accuracy = %v", acc)
	}
	for _, dist := range m.PredictProba(x[:3]) {
		var s float64
		for _, p := range dist {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("proba sums to %v", s)
		}
	}
}

func TestMLPEmptyFitAndPredictBeforeFit(t *testing.T) {
	m := NewMLPClassifier(nil)
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("predict before fit did not panic")
		}
	}()
	NewMLPClassifier(nil).PredictProba([][]float64{{1}})
}

// argmaxLabels picks each row's most probable label, ties going to the
// smallest label.
func argmaxLabels(proba []map[string]float64) []string {
	out := make([]string, len(proba))
	for i, dist := range proba {
		best, bestP := "", -1.0
		for l, p := range dist {
			if p > bestP || (p == bestP && l < best) {
				best, bestP = l, p
			}
		}
		out[i] = best
	}
	return out
}
