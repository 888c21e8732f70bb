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

// FitGrad builds the tree on the rows listed in idx, which must be
// distinct rows of the presorted x; idx itself is left as it is.
func (t *GradTree) FitGrad(cols *Presorted, g, h []float64, idx []int) error {
	if len(cols.x) == 0 || len(idx) == 0 {
		return errEmptyTraining
	}
	if t.MaxDepth <= 0 {
		t.MaxDepth = 6
	}
	rows, err := cols.fill(idx)
	if err != nil {
		return err
	}
	s := newSplitter(cols.x, len(idx), Options{MaxDepth: t.MaxDepth, MaxFeatures: t.MaxFeatures, Seed: t.Seed}.normalized(), cols)
	t.nodes, t.importances = s.fit(&gradScan{t: t, g: g, h: h}, rows, t.nodes)
	return nil
}

// Presorted is a design matrix whose columns are each sorted once, by
// (value, row), for the many GradTree fits of one booster, together
// with the scratch those fits reuse. A fit filters the sorted columns
// to its rows and stable-partitions the lists down the tree, so each
// node's segment of a list is that node's rows in (value, row) order
// and no node sorts. A Presorted serves one fit at a time.
type Presorted struct {
	x        [][]float64
	rows     []int32 // column f's rows in (value, row) order: rows[f*n : (f+1)*n]
	lists    []pair  // the fit's node lists, m per column, column-major, and a spare
	m        int     // rows in the current fit
	spill    []pair  // the presort's buffer, then the lists' partition spill
	idx      []int   // the fit's private copy of idx
	idxSpill []int   // the splitter's partition spill
	left     []uint8 // per row, 0 or 1: in the fit while filtering, goes left while splitting
	feats    []int
}

// Presort sorts each column of x (n×p) by (value, row).
func Presort(x [][]float64) *Presorted {
	n, p := len(x), 0
	if n > 0 {
		p = len(x[0])
	}
	c := &Presorted{
		x:        x,
		rows:     make([]int32, n*p),
		spill:    make([]pair, n),
		idx:      make([]int, n),
		idxSpill: make([]int, n),
		left:     make([]uint8, n),
		feats:    make([]int, p),
	}
	for f := 0; f < p; f++ {
		col := c.spill
		for i := range col {
			col[i] = pair{x[i][f], i}
		}
		slices.SortFunc(col, byValueRow)
		for k, q := range col {
			c.rows[f*n+k] = int32(q.i)
		}
	}
	return c
}

// byValueRow orders pairs by value, then by row; ±0 compare equal, as
// in the split scan.
func byValueRow(a, b pair) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return a.i - b.i
}

// fill starts a fit over rows idx: it copies idx into the fit's private
// rows, which it returns, and filters every sorted column to those rows.
func (c *Presorted) fill(idx []int) ([]int, error) {
	n, m := len(c.x), len(idx)
	p := len(c.feats)
	if cap(c.lists) < p*m+1 {
		c.lists = make([]pair, p*m+1)
	}
	c.lists, c.m = c.lists[:p*m+1], m
	clear(c.left)
	for _, i := range idx {
		c.left[i] = 1
	}
	for f := 0; f < p; f++ {
		// Branch-free filter: every row is written, and only the fit's
		// rows advance k, so the others land in the slot the next write
		// takes (after the last one, the next column's first slot or,
		// for the last column, the spare slot at the end of lists).
		list := c.lists[f*m : (f+1)*m+1]
		k := 0
		for _, r := range c.rows[f*n : (f+1)*n] {
			list[k] = pair{c.x[r][f], int(r)}
			k += int(c.left[r])
		}
		if k < m {
			return nil, errRepeatedRow
		}
	}
	rows := c.idx[:m]
	copy(rows, idx)
	return rows, nil
}

// segment returns the m entries at offset off of column f's list.
func (c *Presorted) segment(f, off, m int) []pair {
	at := f*c.m + off
	return c.lists[at : at+m : at+m]
}

// split stable-partitions the segment at offset off of every list so
// that the rows idx[:nl], which go left, come first.
func (c *Presorted) split(idx []int, off, nl int) {
	for _, i := range idx[:nl] {
		c.left[i] = 1
	}
	for _, i := range idx[nl:] {
		c.left[i] = 0
	}
	for f := range c.feats {
		seg := c.segment(f, off, len(idx))
		l, r := 0, 0
		for _, q := range seg {
			// Branch-free: write q to both sides, advance the one it
			// belongs to; seg[l] has always been read already (l ≤ the
			// read position).
			seg[l], c.spill[r] = q, q
			b := int(c.left[q.i])
			l += b
			r += 1 - b
		}
		copy(seg[l:], c.spill[:r])
	}
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

// scan skips the boundaries that leave either child's hessian sum under
// MinChildWeight.
func (s *gradScan) scan(p []pair, minLeaf int, floor float64) (hi int, gain float64) {
	t, g, h := s.t, s.g, s.h
	gain = floor
	var gl, hl float64
	for k := 0; k < len(p)-minLeaf; k++ {
		gl += g[p[k].i]
		hl += h[p[k].i]
		//lint:allow floateq sorted feature values compared bitwise to skip zero-width splits
		if k+1 < minLeaf || p[k+1].v == p[k].v {
			continue
		}
		gr := s.gSum - gl
		hr := s.hSum - hl
		if hl < t.MinChildWeight || hr < t.MinChildWeight {
			continue
		}
		if v := float64(0.5*(t.score(gl, hl)+t.score(gr, hr)-s.parentScore)) - t.Gamma; v > gain {
			hi, gain = k+1, v
		}
	}
	return hi, gain
}

// PredictOne evaluates the tree on one feature row.
func (t *GradTree) PredictOne(row []float64) float64 { return leafOf(t.nodes, row).value }
