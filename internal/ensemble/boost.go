package ensemble

import "math"

// stageTree is one fitted tree of a boosting stage.
type stageTree interface {
	PredictOne(row []float64) float64
}

// growFunc fits class c's tree of stage t to the softmax gradients g
// and hessians h, one entry per training row.
type growFunc func(t, c int, g, h []float64) (stageTree, error)

// softmaxBooster is the multiclass softmax-boosting loop behind the four
// boosted classifiers (XGB, gradient boosting, LightGBM, CatBoost),
// which differ only in how they grow a tree. Each stage fits one tree
// per class against the softmax cross-entropy's gradient
// g = p − 1{y=c} and hessian h = max(p(1−p), 1e-6), and is applied to
// the scores only after all k trees are fitted.
type softmaxBooster struct {
	enc    *labelEncoder
	prior  []float64 // the scores before the first stage
	lr     float64
	stages [][]stageTree // [stage][class]
}

// fit runs numStages stages at learning rate lr, each tree grown by
// grow. The scores start at zero, or at the log class priors when
// logPrior is set (scikit-learn's GradientBoostingClassifier).
func (b *softmaxBooster) fit(x [][]float64, y []string, numStages int, lr float64, logPrior bool, grow growFunc) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	b.enc = newLabelEncoder(y)
	yi := b.enc.encode(y)
	n, k := len(x), b.enc.numClasses()
	b.lr = lr
	b.prior = make([]float64, k)
	if logPrior {
		for _, c := range yi {
			b.prior[c]++
		}
		for c, count := range b.prior {
			b.prior[c] = math.Log(max(count/float64(n), 1e-9))
		}
	}

	scores := make([]float64, n*k) // row-major n × k
	probs := make([]float64, n*k)
	for i := 0; i < n; i++ {
		copy(scores[i*k:], b.prior)
	}
	g := make([]float64, n)
	h := make([]float64, n)
	b.stages = make([][]stageTree, 0, numStages)
	for t := 0; t < numStages; t++ {
		// The scores are fixed until the stage is applied, so one
		// softmax per row serves all k classes.
		for i := 0; i < n; i++ {
			softmaxInto(scores[i*k:(i+1)*k], probs[i*k:(i+1)*k])
		}
		stage := make([]stageTree, k)
		for c := range stage {
			for i := 0; i < n; i++ {
				p := probs[i*k+c]
				target := 0.0
				if yi[i] == c {
					target = 1
				}
				g[i] = p - target
				h[i] = max(p*(1-p), 1e-6)
			}
			tr, err := grow(t, c, g, h)
			if err != nil {
				return err
			}
			stage[c] = tr
		}
		for i := 0; i < n; i++ {
			for c, tr := range stage {
				scores[i*k+c] += float64(lr * tr.PredictOne(x[i]))
			}
		}
		b.stages = append(b.stages, stage)
	}
	return nil
}

// PredictProba returns per-row label probabilities.
func (b *softmaxBooster) PredictProba(x [][]float64) []map[string]float64 {
	if b.stages == nil {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("ensemble: boosted classifier PredictProba before Fit")
	}
	out := make([]map[string]float64, len(x))
	scores := make([]float64, len(b.prior))
	probs := make([]float64, len(b.prior))
	for i, row := range x {
		copy(scores, b.prior)
		for _, stage := range b.stages {
			for c, tr := range stage {
				scores[c] += float64(b.lr * tr.PredictOne(row))
			}
		}
		softmaxInto(scores, probs)
		out[i] = b.enc.distToMap(probs)
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
