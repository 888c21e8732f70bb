// Package nbeats implements the N-BEATS architecture (Oreshkin et al.,
// 2019) used as the neural baseline in the paper's Table 3: stacks of
// doubly-residual fully-connected blocks with generic, polynomial-trend
// and Fourier-seasonality bases, trained with Adam on MSE. The model
// exposes flat weight get/set so the federated layer can run FedAvg
// over client models.
package nbeats

import (
	"errors"
	"math"
	"math/rand"

	"fedforecaster/internal/neural"
)

// BlockKind selects a block's basis expansion.
type BlockKind int

// Supported block kinds.
const (
	Generic BlockKind = iota
	Trend
	Seasonality
)

// Config describes an N-BEATS network. The defaults mirror the
// paper's tuned baseline (Section 5.1): 2 generic, 2 trend and 2
// seasonal blocks, 64 trend neurons, 512 seasonal neurons, learning
// rate 5e-4, batch size 256 — scaled by the caller where needed.
type Config struct {
	BackcastLength  int // lookback window (input size)
	ForecastLength  int // horizon (output size)
	GenericBlocks   int
	TrendBlocks     int
	SeasonalBlocks  int
	GenericNeurons  int
	TrendNeurons    int
	SeasonalNeurons int
	PolyDegree      int // trend basis degree
	Harmonics       int // seasonal basis harmonics
	LR              float64
	BatchSize       int
	Epochs          int
	Seed            int64
}

func (c Config) normalized() Config {
	if c.BackcastLength < 2 {
		c.BackcastLength = 2
	}
	if c.ForecastLength < 1 {
		c.ForecastLength = 1
	}
	if c.GenericBlocks+c.TrendBlocks+c.SeasonalBlocks == 0 {
		c.GenericBlocks = 1
	}
	if c.GenericNeurons <= 0 {
		c.GenericNeurons = 128
	}
	if c.TrendNeurons <= 0 {
		c.TrendNeurons = 64
	}
	if c.SeasonalNeurons <= 0 {
		c.SeasonalNeurons = 512
	}
	if c.PolyDegree <= 0 {
		c.PolyDegree = 3
	}
	if c.Harmonics <= 0 {
		c.Harmonics = 4
	}
	if c.LR <= 0 {
		c.LR = 5e-4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	return c
}

// block is one doubly-residual N-BEATS block: a 4-layer ReLU MLP
// producing basis coefficients θ_b (backcast) and θ_f (forecast).
type block struct {
	kind   BlockKind
	fc     [4]*neural.Linear
	thetaB *neural.Linear
	thetaF *neural.Linear
	// Fixed basis matrices: basisB is θ_dim×backcast, basisF is
	// θ_dim×forecast. nil for Generic (identity basis).
	basisB [][]float64
	basisF [][]float64

	// per-sample caches for backprop
	masks [4][]bool
}

// Model is a trained/trainable N-BEATS network.
type Model struct {
	Cfg    Config
	blocks []*block
	opt    *neural.Adam
	// series standardization
	mean, std float64
	fitted    bool
}

// New constructs an untrained N-BEATS model.
func New(cfg Config) *Model {
	cfg = cfg.normalized()
	m := &Model{Cfg: cfg, std: 1}
	rng := rand.New(rand.NewSource(cfg.Seed))
	add := func(kind BlockKind, count, width int) {
		for i := 0; i < count; i++ {
			m.blocks = append(m.blocks, newBlock(kind, cfg, width, rng))
		}
	}
	add(Trend, cfg.TrendBlocks, cfg.TrendNeurons)
	add(Seasonality, cfg.SeasonalBlocks, cfg.SeasonalNeurons)
	add(Generic, cfg.GenericBlocks, cfg.GenericNeurons)
	var layers []*neural.Linear
	for _, b := range m.blocks {
		layers = append(layers, b.fc[0], b.fc[1], b.fc[2], b.fc[3], b.thetaB, b.thetaF)
	}
	m.opt = neural.NewAdam(cfg.LR, layers...)
	return m
}

func newBlock(kind BlockKind, cfg Config, width int, rng *rand.Rand) *block {
	b := &block{kind: kind}
	in := cfg.BackcastLength
	b.fc[0] = neural.NewLinear(in, width, rng)
	for i := 1; i < 4; i++ {
		b.fc[i] = neural.NewLinear(width, width, rng)
	}
	switch kind {
	case Trend:
		dim := cfg.PolyDegree + 1
		b.thetaB = neural.NewLinear(width, dim, rng)
		b.thetaF = neural.NewLinear(width, dim, rng)
		b.basisB = polyBasis(dim, cfg.BackcastLength)
		b.basisF = polyBasis(dim, cfg.ForecastLength)
	case Seasonality:
		dim := 2 * cfg.Harmonics
		b.thetaB = neural.NewLinear(width, dim, rng)
		b.thetaF = neural.NewLinear(width, dim, rng)
		b.basisB = fourierBasis(cfg.Harmonics, cfg.BackcastLength)
		b.basisF = fourierBasis(cfg.Harmonics, cfg.ForecastLength)
	default: // Generic: identity basis, θ dimensions equal output sizes
		b.thetaB = neural.NewLinear(width, cfg.BackcastLength, rng)
		b.thetaF = neural.NewLinear(width, cfg.ForecastLength, rng)
	}
	return b
}

// polyBasis returns rows t^i over normalized time in [0, 1).
func polyBasis(dim, length int) [][]float64 {
	basis := make([][]float64, dim)
	for i := range basis {
		row := make([]float64, length)
		for t := 0; t < length; t++ {
			row[t] = math.Pow(float64(t)/float64(length), float64(i))
		}
		basis[i] = row
	}
	return basis
}

// fourierBasis returns interleaved cos/sin harmonic rows.
func fourierBasis(harmonics, length int) [][]float64 {
	basis := make([][]float64, 2*harmonics)
	for k := 0; k < harmonics; k++ {
		cosRow := make([]float64, length)
		sinRow := make([]float64, length)
		for t := 0; t < length; t++ {
			ang := 2 * math.Pi * float64(k+1) * float64(t) / float64(length)
			cosRow[t] = math.Cos(ang)
			sinRow[t] = math.Sin(ang)
		}
		basis[2*k] = cosRow
		basis[2*k+1] = sinRow
	}
	return basis
}

// forward runs one window through the network, caching everything the
// per-block backward pass needs, and returns (forecast, per-block
// residual inputs).
func (m *Model) forward(window []float64) (forecast []float64, residuals [][]float64) {
	x := append([]float64(nil), window...)
	forecast = make([]float64, m.Cfg.ForecastLength)
	residuals = make([][]float64, len(m.blocks))
	for bi, b := range m.blocks {
		residuals[bi] = x
		h := x
		for i, l := range b.fc {
			h = l.Forward(h)
			h, b.masks[i] = neural.ReLUForward(h)
		}
		thB := b.thetaB.Forward(h)
		thF := b.thetaF.Forward(h)
		backcast := expand(thB, b.basisB, m.Cfg.BackcastLength)
		fcast := expand(thF, b.basisF, m.Cfg.ForecastLength)
		//lint:allow hotalloc every block's residual input is retained in residuals for the backward pass; buffers cannot be reused
		next := make([]float64, len(x))
		for i := range x {
			next[i] = x[i] - backcast[i]
		}
		for i := range forecast {
			forecast[i] += fcast[i]
		}
		x = next
	}
	return forecast, residuals
}

// expand maps θ through a basis (or identity when basis is nil).
func expand(theta []float64, basis [][]float64, length int) []float64 {
	if basis == nil {
		return theta
	}
	out := make([]float64, length)
	for i, th := range theta {
		row := basis[i]
		for t := 0; t < length; t++ {
			out[t] += th * row[t]
		}
	}
	return out
}

// contract is the adjoint of expand: dθ_i = Σ_t dOut_t · basis[i][t].
func contract(dout []float64, basis [][]float64, thetaDim int) []float64 {
	if basis == nil {
		return dout
	}
	dtheta := make([]float64, thetaDim)
	for i := range dtheta {
		row := basis[i]
		var s float64
		for t, d := range dout {
			s += d * row[t]
		}
		dtheta[i] = s
	}
	return dtheta
}

// backward accumulates gradients for one sample given dL/dforecast.
// Because blocks cache only the most recent forward pass, forward and
// backward must be called in matched pairs per sample.
func (m *Model) backward(dforecast []float64) {
	// dX is dL/d(residual input of the *next* block); zero at the end.
	dX := make([]float64, m.Cfg.BackcastLength)
	// dback is fully overwritten per block and read transiently by
	// contract/Backward, so one buffer serves the whole sweep.
	dback := make([]float64, m.Cfg.BackcastLength)
	for bi := len(m.blocks) - 1; bi >= 0; bi-- {
		b := m.blocks[bi]
		// forecast path: all blocks' forecasts sum into the output.
		dthF := contract(dforecast, b.basisF, b.thetaF.Out)
		// backcast path: x_{next} = x − backcast ⇒ dL/dbackcast = −dX.
		for i := range dback {
			dback[i] = -dX[i]
		}
		dthB := contract(dback, b.basisB, b.thetaB.Out)
		dh := b.thetaF.Backward(dthF)
		dhB := b.thetaB.Backward(dthB)
		for i := range dh {
			dh[i] += dhB[i]
		}
		for i := 3; i >= 0; i-- {
			dh = neural.ReLUBackward(dh, b.masks[i])
			dh = b.fc[i].Backward(dh)
		}
		// dL/dx_l = residual passthrough + block input gradient.
		for i := range dX {
			dX[i] += dh[i]
		}
	}
}

func (m *Model) zeroGrad() {
	for _, b := range m.blocks {
		for _, l := range b.fc {
			l.ZeroGrad()
		}
		b.thetaB.ZeroGrad()
		b.thetaF.ZeroGrad()
	}
}

// windows builds sliding (window → next horizon values) training pairs
// from a standardized series.
func (m *Model) windows(z []float64) (xs [][]float64, ys [][]float64) {
	bl, fl := m.Cfg.BackcastLength, m.Cfg.ForecastLength
	for start := 0; start+bl+fl <= len(z); start++ {
		xs = append(xs, z[start:start+bl])
		ys = append(ys, z[start+bl:start+bl+fl])
	}
	return xs, ys
}

// ErrSeriesTooShort is returned when a series cannot produce a single
// training window.
var ErrSeriesTooShort = errors.New("nbeats: series shorter than backcast+forecast window")

// Fit trains the network on the series with Adam and MSE loss.
func (m *Model) Fit(series []float64) error {
	cfg := m.Cfg
	if len(series) < cfg.BackcastLength+cfg.ForecastLength {
		return ErrSeriesTooShort
	}
	// Standardize.
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	var varr float64
	for _, v := range series {
		d := v - mean
		varr += d * d
	}
	std := math.Sqrt(varr / float64(len(series)))
	if std < 1e-12 {
		std = 1
	}
	m.mean, m.std = mean, std
	z := make([]float64, len(series))
	for i, v := range series {
		z[i] = (v - mean) / std
	}

	xs, ys := m.windows(z)
	n := len(xs)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	order := rng.Perm(n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			m.zeroGrad()
			for _, i := range order[start:end] {
				forecast, _ := m.forward(xs[i])
				dfc := make([]float64, len(forecast))
				for j := range forecast {
					dfc[j] = 2 * (forecast[j] - ys[i][j]) / float64(len(forecast))
				}
				m.backward(dfc)
			}
			m.opt.Step(end - start)
		}
	}
	m.fitted = true
	return nil
}

// TrainSteps runs a fixed number of minibatch gradient steps (used by
// the federated trainer, which alternates local steps with FedAvg
// rounds). The series must be long enough for at least one window.
func (m *Model) TrainSteps(series []float64, steps int) error {
	cfg := m.Cfg
	if len(series) < cfg.BackcastLength+cfg.ForecastLength {
		return ErrSeriesTooShort
	}
	if !m.fitted {
		// First call establishes the standardization.
		var mean, varr float64
		for _, v := range series {
			mean += v
		}
		mean /= float64(len(series))
		for _, v := range series {
			d := v - mean
			varr += d * d
		}
		std := math.Sqrt(varr / float64(len(series)))
		if std < 1e-12 {
			std = 1
		}
		m.mean, m.std = mean, std
		m.fitted = true
	}
	z := make([]float64, len(series))
	for i, v := range series {
		z[i] = (v - m.mean) / m.std
	}
	xs, ys := m.windows(z)
	n := len(xs)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(steps)*31 + int64(n)))
	for s := 0; s < steps; s++ {
		m.zeroGrad()
		bs := cfg.BatchSize
		if bs > n {
			bs = n
		}
		for b := 0; b < bs; b++ {
			i := rng.Intn(n)
			forecast, _ := m.forward(xs[i])
			dfc := make([]float64, len(forecast))
			for j := range forecast {
				dfc[j] = 2 * (forecast[j] - ys[i][j]) / float64(len(forecast))
			}
			m.backward(dfc)
		}
		m.opt.Step(bs)
	}
	return nil
}

// Forecast predicts the next horizon values following the given
// context (at least BackcastLength observations).
func (m *Model) Forecast(context []float64) ([]float64, error) {
	if !m.fitted {
		return nil, errors.New("nbeats: Forecast before Fit")
	}
	bl := m.Cfg.BackcastLength
	if len(context) < bl {
		return nil, ErrSeriesTooShort
	}
	window := make([]float64, bl)
	for i := 0; i < bl; i++ {
		window[i] = (context[len(context)-bl+i] - m.mean) / m.std
	}
	z, _ := m.forward(window)
	out := make([]float64, len(z))
	for i, v := range z {
		out[i] = v*m.std + m.mean
	}
	return out, nil
}

// EvaluateOneStep computes rolling one-step-ahead MSE over the
// validation part of a series: for each position in valid, the model
// sees the true history and predicts the next value.
func (m *Model) EvaluateOneStep(history, valid []float64) (float64, error) {
	if !m.fitted {
		return 0, errors.New("nbeats: Evaluate before Fit")
	}
	full := append(append([]float64(nil), history...), valid...)
	bl := m.Cfg.BackcastLength
	var sse float64
	var count int
	for i := range valid {
		end := len(history) + i
		if end < bl {
			continue
		}
		pred, err := m.Forecast(full[:end])
		if err != nil {
			return 0, err
		}
		d := pred[0] - valid[i]
		sse += d * d
		count++
	}
	if count == 0 {
		return math.NaN(), nil
	}
	return sse / float64(count), nil
}
