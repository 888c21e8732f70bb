// Package tree implements CART decision trees for regression (variance
// reduction) and classification (Gini impurity), with the knobs the
// ensemble layer needs: depth and leaf-size limits, per-split feature
// subsampling (random forests), fully random thresholds (extra trees),
// and impurity-based feature importances (federated feature selection).
// It also provides GradTree, a second-order gradient tree used by the
// XGBoost-style booster.
package tree

import "errors"

// Options control tree induction.
type Options struct {
	MaxDepth         int     // 0 means unlimited
	MinSamplesSplit  int     // minimum samples to consider splitting (default 2)
	MinSamplesLeaf   int     // minimum samples per leaf (default 1)
	MaxFeatures      int     // features considered per split; 0 means all
	RandomThresholds bool    // extra-trees style: one random threshold per feature
	MinImpurityDecr  float64 // minimum impurity decrease to accept a split
	Seed             int64
}

func (o Options) normalized() Options {
	if o.MinSamplesSplit < 2 {
		o.MinSamplesSplit = 2
	}
	if o.MinSamplesLeaf < 1 {
		o.MinSamplesLeaf = 1
	}
	return o
}

type node struct {
	feature   int // -1 for leaf
	threshold float64
	left      int // child indices into the flat node slice
	right     int
	value     float64   // regression leaf value
	classDist []float64 // classification leaf distribution
}

var (
	errEmptyTraining = errors.New("tree: empty training set")
	errRepeatedRow   = errors.New("tree: idx repeats a row")
)

// ---------------------------------------------------------------------------
// Regression tree
// ---------------------------------------------------------------------------

// Regressor is a CART regression tree.
type Regressor struct {
	Opts        Options
	nodes       []node
	importances []float64
}

// NewRegressor returns a regression tree with the given options.
func NewRegressor(opts Options) *Regressor { return &Regressor{Opts: opts.normalized()} }

// Fit builds the tree on x (n×p) and y.
func (t *Regressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	s := newSplitter(x, len(x), t.Opts, nil)
	t.nodes, t.importances = s.fit(&regScan{y: y}, identity(len(x)), t.nodes)
	return nil
}

// regScan accumulates target sums for the decrease of n·variance.
type regScan struct {
	y         []float64
	parentImp float64
}

func (r *regScan) open(idx []int) (node, bool) {
	var sum, sumsq float64
	for _, i := range idx {
		sum += r.y[i]
		sumsq += float64(r.y[i] * r.y[i])
	}
	n := float64(len(idx))
	r.parentImp = sumsq - sum*sum/n // n · variance
	return node{feature: -1, value: sum / n}, r.parentImp <= 1e-12
}

// scan sums the column's targets in sorted order for the right child's
// totals before it walks the boundaries.
func (r *regScan) scan(p []pair, minLeaf int, floor float64) (hi int, gain float64) {
	y := r.y
	var lSum, lSumSq, tSum, tSumSq float64
	for _, q := range p {
		tSum += y[q.i]
		tSumSq += float64(y[q.i] * y[q.i])
	}
	gain = floor
	for k := 0; k < len(p)-minLeaf; k++ {
		lSum += y[p[k].i]
		lSumSq += float64(y[p[k].i] * y[p[k].i])
		//lint:allow floateq sorted feature values compared bitwise to skip zero-width splits
		if k+1 < minLeaf || p[k+1].v == p[k].v {
			continue
		}
		ln, rn := float64(k+1), float64(len(p)-k-1)
		rSum := tSum - lSum
		rSumSq := tSumSq - lSumSq
		childImp := (lSumSq - lSum*lSum/ln) + (rSumSq - rSum*rSum/rn)
		if v := r.parentImp - childImp; v > gain {
			hi, gain = k+1, v
		}
	}
	return hi, gain
}

func (r *regScan) gainAt(x [][]float64, idx []int, f int, thr float64) (float64, int) {
	var lSum, lSumSq, rSum, rSumSq, ln, rn float64
	for _, i := range idx {
		if x[i][f] <= thr {
			lSum += r.y[i]
			lSumSq += float64(r.y[i] * r.y[i])
			ln++
		} else {
			rSum += r.y[i]
			rSumSq += float64(r.y[i] * r.y[i])
			rn++
		}
	}
	childImp := (lSumSq - lSum*lSum/ln) + (rSumSq - rSum*rSum/rn)
	return r.parentImp - childImp, int(ln)
}

// Predict returns one prediction per row of x.
func (t *Regressor) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = t.PredictOne(row)
	}
	return out
}

// PredictOne evaluates the tree on a single feature row.
func (t *Regressor) PredictOne(row []float64) float64 { return leafOf(t.nodes, row).value }

// FeatureImportances returns impurity-decrease importances normalized
// to sum to 1 (all zeros if the tree is a stump).
func (t *Regressor) FeatureImportances() []float64 {
	return normalizeImportances(t.importances)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// leafOf walks a fitted tree's nodes down to the leaf that row reaches.
func leafOf(nodes []node, row []float64) *node {
	if len(nodes) == 0 {
		//lint:allow panicfree Predict before Fit violates the model API contract; the pipeline always fits first
		panic("tree: Predict called before Fit")
	}
	cur := 0
	for nodes[cur].feature >= 0 {
		if row[nodes[cur].feature] <= nodes[cur].threshold {
			cur = nodes[cur].left
		} else {
			cur = nodes[cur].right
		}
	}
	return &nodes[cur]
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func normalizeImportances(imp []float64) []float64 {
	out := make([]float64, len(imp))
	var total float64
	for _, v := range imp {
		total += v
	}
	if total <= 0 {
		return out
	}
	for i, v := range imp {
		out[i] = v / total
	}
	return out
}
