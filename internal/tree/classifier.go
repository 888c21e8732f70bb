package tree

// Classifier is a CART classification tree over integer class indices.
// The ensemble layer maps string labels to indices once and shares the
// mapping across trees.
type Classifier struct {
	Opts        Options
	NumClasses  int
	nodes       []node
	importances []float64
}

// NewClassifier returns a classification tree for numClasses classes.
func NewClassifier(opts Options, numClasses int) *Classifier {
	return &Classifier{Opts: opts.normalized(), NumClasses: numClasses}
}

// Fit builds the tree on x (n×p) and integer class labels y.
func (t *Classifier) Fit(x [][]float64, y []int) error {
	if len(x) == 0 || len(x) != len(y) {
		return errEmptyTraining
	}
	k := t.NumClasses
	counts := make([]float64, 3*k)
	sc := &clfScan{y: y, total: counts[:k:k], left: counts[k : 2*k : 2*k], right: counts[2*k:]}
	s := newSplitter(x, len(x), t.Opts, nil)
	t.nodes, t.importances = s.fit(sc, identity(len(x)), t.nodes)
	for id := range t.nodes {
		t.nodes[id].classDist = sc.dists[id*k : (id+1)*k : (id+1)*k]
	}
	return nil
}

// giniTimesN computes n·gini from class counts.
func giniTimesN(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	var sumsq float64
	for _, c := range counts {
		sumsq += float64(c * c)
	}
	return n - sumsq/n
}

// clfScan accumulates class counts for the decrease of n·gini. total
// holds the open node's counts; dists gathers every node's class
// distribution in node order, one slab for the whole tree.
type clfScan struct {
	y                  []int
	parentImp          float64
	total, left, right []float64
	dists              []float64
}

func (c *clfScan) open(idx []int) (node, bool) {
	clear(c.total)
	for _, i := range idx {
		c.total[c.y[i]]++
	}
	n := float64(len(idx))
	for _, v := range c.total {
		c.dists = append(c.dists, v/n)
	}
	c.parentImp = giniTimesN(c.total, n)
	return node{feature: -1}, c.parentImp <= 1e-12
}

func (c *clfScan) scan(p []pair, minLeaf int, floor float64) (hi int, gain float64) {
	copy(c.right, c.total)
	clear(c.left)
	gain = floor
	for k := 0; k < len(p)-minLeaf; k++ {
		c.left[c.y[p[k].i]]++
		c.right[c.y[p[k].i]]--
		//lint:allow floateq sorted feature values compared bitwise to skip zero-width splits
		if k+1 < minLeaf || p[k+1].v == p[k].v {
			continue
		}
		if v := c.parentImp - giniTimesN(c.left, float64(k+1)) - giniTimesN(c.right, float64(len(p)-k-1)); v > gain {
			hi, gain = k+1, v
		}
	}
	return hi, gain
}

func (c *clfScan) gainAt(x [][]float64, idx []int, f int, thr float64) (float64, int) {
	clear(c.left)
	clear(c.right)
	var ln, rn float64
	for _, i := range idx {
		if x[i][f] <= thr {
			c.left[c.y[i]]++
			ln++
		} else {
			c.right[c.y[i]]++
			rn++
		}
	}
	return c.parentImp - giniTimesN(c.left, ln) - giniTimesN(c.right, rn), int(ln)
}

// PredictProbaOne returns the class distribution at the leaf reached
// by row.
func (t *Classifier) PredictProbaOne(row []float64) []float64 { return leafOf(t.nodes, row).classDist }
