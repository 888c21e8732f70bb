// Package search defines the hyper-parameter search space of Table 2 —
// six forecasting algorithm families with their ranges — along with
// uniform [0,1]^d encoding/decoding for the Bayesian optimizer, random
// sampling, grid enumeration for knowledge-base construction, and
// instantiation of concrete regressors from configurations.
package search

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// ParamKind describes how a hyper-parameter is sampled and encoded.
type ParamKind int

// Supported parameter kinds.
const (
	Uniform ParamKind = iota
	LogUniform
	IntUniform
	Categorical
)

// Param is one hyper-parameter dimension.
type Param struct {
	Name    string
	Kind    ParamKind
	Lo, Hi  float64  // numeric bounds (Lo/Hi in raw units; LogUniform bounds are raw too)
	Choices []string // Categorical only
}

// Space is one algorithm's hyper-parameter box.
type Space struct {
	Algorithm string
	Params    []Param
}

// Config is a concrete algorithm instantiation: numeric values hold
// floats (ints are stored as floats), categorical values hold the
// choice string in Cats.
type Config struct {
	Algorithm string
	Values    map[string]float64
	Cats      map[string]string
}

// Clone deep-copies the configuration.
func (c Config) Clone() Config {
	out := Config{Algorithm: c.Algorithm, Values: map[string]float64{}, Cats: map[string]string{}}
	for k, v := range c.Values {
		out.Values[k] = v
	}
	for k, v := range c.Cats {
		out.Cats[k] = v
	}
	return out
}

// String renders the configuration deterministically for logs and
// deduplication keys.
func (c Config) String() string {
	keys := make([]string, 0, len(c.Values)+len(c.Cats))
	for k := range c.Values {
		keys = append(keys, k)
	}
	for k := range c.Cats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(c.Algorithm)
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte('=')
		if v, ok := c.Values[k]; ok {
			// strconv writes the same bytes fmt's %.6g would, without
			// boxing the float64 — String keys every dedup lookup the
			// optimizer makes.
			b.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
		} else {
			b.WriteString(c.Cats[k])
		}
	}
	return b.String()
}

// Algorithm names of the Table 2 search space.
const (
	AlgoLasso        = "Lasso"
	AlgoLinearSVR    = "LinearSVR"
	AlgoElasticNetCV = "ElasticNetCV"
	AlgoXGB          = "XGBRegressor"
	AlgoHuber        = "HuberRegressor"
	AlgoQuantile     = "QuantileRegressor"
)

// AllAlgorithms lists the Table 2 algorithms in canonical order.
func AllAlgorithms() []string {
	return []string{AlgoLasso, AlgoLinearSVR, AlgoElasticNetCV, AlgoXGB, AlgoHuber, AlgoQuantile}
}

// DefaultSpaces returns the Table 2 search space.
func DefaultSpaces() []Space {
	return []Space{
		{
			Algorithm: AlgoLasso,
			Params: []Param{
				{Name: "alpha", Kind: LogUniform, Lo: math.Exp(-5), Hi: 10},
				{Name: "selection", Kind: Categorical, Choices: []string{"cyclic", "random"}},
			},
		},
		{
			Algorithm: AlgoLinearSVR,
			Params: []Param{
				{Name: "C", Kind: Uniform, Lo: 1, Hi: 10},
				{Name: "epsilon", Kind: Uniform, Lo: 0.01, Hi: 0.1},
			},
		},
		{
			Algorithm: AlgoElasticNetCV,
			Params: []Param{
				{Name: "l1_ratio", Kind: Uniform, Lo: 0.3, Hi: 10},
				{Name: "selection", Kind: Categorical, Choices: []string{"cyclic", "random"}},
			},
		},
		{
			Algorithm: AlgoXGB,
			Params: []Param{
				{Name: "n_estimators", Kind: IntUniform, Lo: 5, Hi: 20},
				{Name: "max_depth", Kind: IntUniform, Lo: 2, Hi: 10},
				{Name: "learning_rate", Kind: LogUniform, Lo: 0.01, Hi: 1},
				{Name: "reg_lambda", Kind: Uniform, Lo: 0.8, Hi: 10},
				{Name: "subsample", Kind: Uniform, Lo: 0.1, Hi: 1},
			},
		},
		{
			Algorithm: AlgoHuber,
			Params: []Param{
				{Name: "epsilon", Kind: Categorical, Choices: []string{"1.0", "1.35", "1.5"}},
				{Name: "alpha", Kind: LogUniform, Lo: math.Exp(-3), Hi: math.Exp(2)},
			},
		},
		{
			Algorithm: AlgoQuantile,
			Params: []Param{
				{Name: "alpha", Kind: LogUniform, Lo: math.Exp(-3), Hi: math.Exp(2)},
				{Name: "quantile", Kind: Uniform, Lo: 0.1, Hi: 1},
			},
		},
	}
}

// SpaceFor returns the space of the named algorithm from spaces, or
// false when absent.
func SpaceFor(spaces []Space, algorithm string) (Space, bool) {
	for _, s := range spaces {
		if s.Algorithm == algorithm {
			return s, true
		}
	}
	return Space{}, false
}

// Dim returns the encoded dimensionality of the space.
func (s Space) Dim() int { return len(s.Params) }

// Sample draws a uniform random configuration from the space.
func (s Space) Sample(rng *rand.Rand) Config {
	u := make([]float64, s.Dim())
	for i := range u {
		u[i] = rng.Float64()
	}
	return s.Decode(u)
}

// Decode maps a point in [0,1]^d to a configuration.
func (s Space) Decode(u []float64) Config {
	cfg := Config{Algorithm: s.Algorithm, Values: map[string]float64{}, Cats: map[string]string{}}
	for i, p := range s.Params {
		x := clamp01(u[i])
		switch p.Kind {
		case Uniform:
			cfg.Values[p.Name] = p.Lo + float64(x*(p.Hi-p.Lo))
		case LogUniform:
			lo, hi := math.Log(p.Lo), math.Log(p.Hi)
			cfg.Values[p.Name] = math.Exp(lo + float64(x*(hi-lo)))
		case IntUniform:
			span := p.Hi - p.Lo + 1
			v := p.Lo + math.Floor(x*span)
			if v > p.Hi {
				v = p.Hi
			}
			cfg.Values[p.Name] = v
		case Categorical:
			k := int(x * float64(len(p.Choices)))
			if k >= len(p.Choices) {
				k = len(p.Choices) - 1
			}
			cfg.Cats[p.Name] = p.Choices[k]
		}
	}
	return cfg
}

// Encode maps a configuration back to [0,1]^d (the inverse of Decode
// up to discretization).
func (s Space) Encode(cfg Config) []float64 {
	u := make([]float64, s.Dim())
	for i, p := range s.Params {
		switch p.Kind {
		case Uniform:
			u[i] = clamp01((cfg.Values[p.Name] - p.Lo) / (p.Hi - p.Lo))
		case LogUniform:
			lo, hi := math.Log(p.Lo), math.Log(p.Hi)
			u[i] = clamp01((math.Log(cfg.Values[p.Name]) - lo) / (hi - lo))
		case IntUniform:
			span := p.Hi - p.Lo + 1
			u[i] = clamp01((cfg.Values[p.Name] - p.Lo + 0.5) / span)
		case Categorical:
			idx := 0
			for k, c := range p.Choices {
				if c == cfg.Cats[p.Name] {
					idx = k
					break
				}
			}
			u[i] = (float64(idx) + 0.5) / float64(len(p.Choices))
		}
	}
	return u
}

// Grid enumerates a coarse grid over the space with at most
// perParam values per numeric dimension (categoricals enumerate all
// choices) — the grid search used to label the knowledge base.
func (s Space) Grid(perParam int) []Config {
	if perParam < 1 {
		perParam = 1
	}
	var levels [][]float64 // per-param positions in [0,1]
	for _, p := range s.Params {
		var pos []float64
		n := perParam
		if p.Kind == Categorical {
			n = len(p.Choices)
		}
		if p.Kind == IntUniform {
			span := int(p.Hi-p.Lo) + 1
			if span < n {
				n = span
			}
		}
		if n == 1 {
			pos = []float64{0.5}
		} else {
			for k := 0; k < n; k++ {
				pos = append(pos, (float64(k)+0.5)/float64(n))
			}
		}
		levels = append(levels, pos)
	}
	var out []Config
	u := make([]float64, len(levels))
	var rec func(dim int)
	rec = func(dim int) {
		if dim == len(levels) {
			out = append(out, s.Decode(append([]float64(nil), u...)))
			return
		}
		for _, v := range levels[dim] {
			u[dim] = v
			rec(dim + 1)
		}
	}
	rec(0)
	// Deduplicate (integer/categorical rounding can collide).
	seen := map[string]bool{}
	var uniq []Config
	for _, c := range out {
		k := c.String()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, c)
		}
	}
	return uniq
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
