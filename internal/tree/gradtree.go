package tree

import "slices"

// GradTree is a second-order gradient tree in the XGBoost style: it is
// fitted to per-sample gradients g and hessians h of an arbitrary
// twice-differentiable loss, producing leaf weights −G/(H+λ) and using
// the regularized gain
//
//	½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//
// as the split criterion.
type GradTree struct {
	MaxDepth       int
	MinChildWeight float64 // minimum hessian sum per child
	Lambda         float64 // L2 regularization on leaf weights
	Gamma          float64 // minimum gain to split
	MaxFeatures    int     // features considered per split; 0 = all
	Seed           int64

	nodes       []node
	importances []float64
}

// FitGrad builds the tree on the rows listed in idx; idx itself is
// left as it is.
func (t *GradTree) FitGrad(x [][]float64, g, h []float64, idx []int) error {
	if len(x) == 0 || len(idx) == 0 {
		return errEmptyTraining
	}
	if t.MaxDepth <= 0 {
		t.MaxDepth = 6
	}
	s := newSplitter(x, len(idx), Options{MaxDepth: t.MaxDepth, MaxFeatures: t.MaxFeatures, Seed: t.Seed}.normalized())
	t.nodes, t.importances = s.fit(&gradScan{t: t, g: g, h: h}, slices.Clone(idx), t.nodes)
	return nil
}

func (t *GradTree) leafWeight(gSum, hSum float64) float64 {
	return -gSum / (hSum + t.Lambda)
}

func (t *GradTree) score(gSum, hSum float64) float64 {
	return gSum * gSum / (hSum + t.Lambda)
}

// gradScan accumulates gradient and hessian sums for the regularized
// second-order gain.
type gradScan struct {
	t                       *GradTree
	g, h                    []float64
	gSum, hSum, parentScore float64
	gl, hl                  float64
}

func (s *gradScan) open(idx []int) (node, bool) {
	s.gSum, s.hSum = 0, 0
	for _, i := range idx {
		s.gSum += s.g[i]
		s.hSum += s.h[i]
	}
	s.parentScore = s.t.score(s.gSum, s.hSum)
	return node{feature: -1, value: s.t.leafWeight(s.gSum, s.hSum)}, false
}

func (s *gradScan) reset([]pair) { s.gl, s.hl = 0, 0 }

func (s *gradScan) push(run []pair) {
	for _, p := range run {
		s.gl += s.g[p.i]
		s.hl += s.h[p.i]
	}
}

func (s *gradScan) gain(int, int) float64 {
	t := s.t
	gr := s.gSum - s.gl
	hr := s.hSum - s.hl
	if s.hl < t.MinChildWeight || hr < t.MinChildWeight {
		return 0
	}
	return 0.5*(t.score(s.gl, s.hl)+t.score(gr, hr)-s.parentScore) - t.Gamma
}

// PredictOne evaluates the tree on one feature row.
func (t *GradTree) PredictOne(row []float64) float64 { return leafOf(t.nodes, row).value }
