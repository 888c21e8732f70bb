package ensemble

import (
	"math"

	"fedforecaster/internal/tree"
)

// GBMOptions configure classical gradient boosting.
type GBMOptions struct {
	NumTrees       int     // default 100
	MaxDepth       int     // default 3
	LearningRate   float64 // default 0.1
	MinSamplesLeaf int
	Seed           int64
}

func (o GBMOptions) normalized() GBMOptions {
	if o.NumTrees <= 0 {
		o.NumTrees = 100
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	return o
}

// GradientBoostingClassifier boosts one regression-tree sequence per
// class against the softmax cross-entropy gradient (multiclass
// deviance, as in scikit-learn's GradientBoostingClassifier).
type GradientBoostingClassifier struct {
	Opts  GBMOptions
	enc   *labelEncoder
	prior []float64
	trees [][]*tree.Regressor // [stage][class]
}

// NewGradientBoostingClassifier returns a booster with the given options.
func NewGradientBoostingClassifier(opts GBMOptions) *GradientBoostingClassifier {
	return &GradientBoostingClassifier{Opts: opts}
}

// Fit trains the booster on string labels.
func (g *GradientBoostingClassifier) Fit(x [][]float64, y []string) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	opts := g.Opts.normalized()
	g.enc = newLabelEncoder(y)
	yi := g.enc.encode(y)
	n := len(x)
	k := g.enc.numClasses()

	// Log-prior initialization.
	counts := make([]float64, k)
	for _, c := range yi {
		counts[c]++
	}
	g.prior = make([]float64, k)
	for c := range g.prior {
		p := counts[c] / float64(n)
		if p < 1e-9 {
			p = 1e-9
		}
		g.prior[c] = math.Log(p)
	}

	scores := make([][]float64, n) // n × k raw scores
	for i := range scores {
		scores[i] = append([]float64(nil), g.prior...)
	}
	g.trees = g.trees[:0]
	probs := make([]float64, k)
	grad := make([]float64, n)
	for t := 0; t < opts.NumTrees; t++ {
		stage := make([]*tree.Regressor, k)
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				softmaxInto(scores[i], probs)
				target := 0.0
				if yi[i] == c {
					target = 1
				}
				grad[i] = target - probs[c] // negative gradient
			}
			tr := tree.NewRegressor(tree.Options{
				MaxDepth:       opts.MaxDepth,
				MinSamplesLeaf: opts.MinSamplesLeaf,
				Seed:           opts.Seed + int64(t*31+c),
			})
			if err := tr.Fit(x, grad); err != nil {
				return err
			}
			stage[c] = tr
		}
		// Apply the whole stage at once (one stage = one tree per class).
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				scores[i][c] += float64(opts.LearningRate * stage[c].PredictOne(x[i]))
			}
		}
		g.trees = append(g.trees, stage)
	}
	return nil
}

func (g *GradientBoostingClassifier) scoresFor(row []float64) []float64 {
	lr := g.Opts.normalized().LearningRate
	s := append([]float64(nil), g.prior...)
	for _, stage := range g.trees {
		for c, tr := range stage {
			s[c] += float64(lr * tr.PredictOne(row))
		}
	}
	return s
}

// PredictProba returns per-row label probabilities.
func (g *GradientBoostingClassifier) PredictProba(x [][]float64) []map[string]float64 {
	if g.trees == nil {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("ensemble: GradientBoostingClassifier.Predict before Fit")
	}
	out := make([]map[string]float64, len(x))
	k := g.enc.numClasses()
	probs := make([]float64, k)
	for i, row := range x {
		softmaxInto(g.scoresFor(row), probs)
		out[i] = g.enc.distToMap(probs)
	}
	return out
}

// softmaxInto writes softmax(scores) into out (same length).
func softmaxInto(scores, out []float64) {
	maxS := math.Inf(-1)
	for _, v := range scores {
		if v > maxS {
			maxS = v
		}
	}
	var sum float64
	for c, v := range scores {
		out[c] = math.Exp(v - maxS)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}
