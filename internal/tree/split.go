package tree

import (
	"math"
	"math/rand"
)

// pair is one entry of the sort buffer: a row's value on the feature
// being scanned, and the row.
type pair struct {
	v float64
	i int
}

// scanner is the per-kind half of tree induction: a node's summary, and
// the accumulators (target sums, class counts, or gradient and hessian
// sums) and gain arithmetic of its split search.
type scanner interface {
	// open primes the scanner for rows idx and returns them as a leaf;
	// pure reports a node that no split can improve.
	open(idx []int) (leaf node, pure bool)
	// scan walks one sorted column of the open node's rows, moving them
	// from the right child to the left in order, and scores every
	// boundary between two differing values that leaves at least
	// minLeaf (≥ 1) rows on each side and that the kind allows. It
	// returns the first boundary with the largest gain above floor as
	// hi, the count of rows that go left, or hi 0 and floor when no
	// boundary gains more.
	scan(p []pair, minLeaf int, floor float64) (hi int, gain float64)
}

// thresholdScanner also scores one given threshold over unsorted rows,
// for the RandomThresholds (extra-trees) mode, and counts the rows that
// go left.
type thresholdScanner interface {
	scanner
	gainAt(x [][]float64, idx []int, f int, thr float64) (gain float64, left int)
}

// splitter grows a tree of any kind. It owns the shared half of the
// split search: the candidate-feature draw, the sorted column of each
// (node, candidate feature), the midpoint threshold of the boundary its
// scanner picks, the random-threshold mode, and the stable
// partition of a node's rows. Without cols it sorts each column per
// node into buffers sized once per Fit and dropped with it; with cols
// it reads the node's segment of the presorted lists and borrows their
// scratch.
type splitter struct {
	x           [][]float64
	o           Options
	rng         *rand.Rand
	cols        *Presorted
	feats       []int  // candidate features, p
	pairs       []pair // sort buffer, n; unused with cols
	spill       []int  // partition buffer, n
	nodes       []node
	importances []float64
}

func newSplitter(x [][]float64, n int, o Options, cols *Presorted) *splitter {
	s := &splitter{x: x, o: o, cols: cols}
	if cols != nil {
		s.feats, s.spill = cols.feats, cols.idxSpill
	} else {
		s.feats, s.pairs, s.spill = make([]int, len(x[0])), make([]pair, n), make([]int, n)
	}
	// Seeding costs more than a small tree's scan: skip it when the fit
	// draws nothing.
	if o.RandomThresholds || (o.MaxFeatures > 0 && o.MaxFeatures < len(s.feats)) {
		s.rng = rand.New(rand.NewSource(o.Seed))
	}
	return s
}

// fit grows the tree over rows idx, which it reorders, reusing nodes'
// storage, and returns the nodes and the raw importances.
func (s *splitter) fit(sc scanner, idx []int, nodes []node) ([]node, []float64) {
	s.nodes, s.importances = nodes[:0], make([]float64, len(s.feats))
	s.grow(sc, idx, 0, 0)
	return s.nodes, s.importances
}

// grow splits rows idx, which sit at offset off of the fit's rows (and
// of every presorted list), and returns the node's id.
func (s *splitter) grow(sc scanner, idx []int, off, depth int) int {
	id := len(s.nodes)
	leaf, pure := sc.open(idx)
	s.nodes = append(s.nodes, leaf)
	if pure || len(idx) < s.o.MinSamplesSplit || (s.o.MaxDepth > 0 && depth >= s.o.MaxDepth) {
		return id
	}
	feat, thr, gain := s.best(sc, idx, off)
	if feat < 0 || gain <= s.o.MinImpurityDecr {
		return id
	}
	nl := s.partition(idx, feat, thr)
	if nl < s.o.MinSamplesLeaf || len(idx)-nl < s.o.MinSamplesLeaf {
		return id
	}
	s.importances[feat] += gain
	if s.cols != nil && (s.o.MaxDepth <= 0 || depth+1 < s.o.MaxDepth) {
		s.cols.split(idx, off, nl) // only children that may split read the lists
	}
	left := s.grow(sc, idx[:nl], off, depth+1)
	right := s.grow(sc, idx[nl:], off+nl, depth+1)
	n := &s.nodes[id]
	n.feature, n.threshold, n.left, n.right = feat, thr, left, right
	return id
}

// candidates returns the features to scan at one node: all of them, or
// the first MaxFeatures of a fresh shuffle.
func (s *splitter) candidates() []int {
	for i := range s.feats {
		s.feats[i] = i
	}
	p := len(s.feats)
	if s.o.MaxFeatures <= 0 || s.o.MaxFeatures >= p {
		return s.feats
	}
	s.rng.Shuffle(p, func(i, j int) { s.feats[i], s.feats[j] = s.feats[j], s.feats[i] })
	return s.feats[:s.o.MaxFeatures]
}

// best returns the split of rows idx with the largest positive gain,
// or feature -1 when none gains.
func (s *splitter) best(sc scanner, idx []int, off int) (feat int, thr, gain float64) {
	feat = -1
	for _, f := range s.candidates() {
		if s.o.RandomThresholds {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range idx {
				v := s.x[i][f]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if !(hi > lo) {
				continue
			}
			t := lo + float64(s.rng.Float64()*(hi-lo))
			g, left := sc.(thresholdScanner).gainAt(s.x, idx, f, t)
			if left >= s.o.MinSamplesLeaf && len(idx)-left >= s.o.MinSamplesLeaf && g > gain {
				feat, thr, gain = f, t, g
			}
			continue
		}
		var p []pair
		if s.cols != nil {
			p = s.cols.segment(f, off, len(idx))
		} else {
			p = s.sorted(idx, f)
		}
		if hi, g := sc.scan(p, max(s.o.MinSamplesLeaf, 1), gain); hi > 0 {
			feat, thr, gain = f, (p[hi-1].v+p[hi].v)/2, g
		}
	}
	return feat, thr, gain
}

// sorted fills the sort buffer with rows idx, in idx order, and sorts
// it by their value on feature f.
func (s *splitter) sorted(idx []int, f int) []pair {
	p := s.pairs[:len(idx)]
	for k, i := range idx {
		p[k] = pair{s.x[i][f], i}
	}
	sortPairs(p)
	return p
}

// partition reorders idx in place so that the rows with x[i][f] <= thr
// come first, each side keeping its order, and returns their count.
func (s *splitter) partition(idx []int, f int, thr float64) int {
	nl, nr := 0, 0
	for _, i := range idx {
		if s.x[i][f] <= thr {
			idx[nl] = i
			nl++
		} else {
			s.spill[nr] = i
			nr++
		}
	}
	copy(idx[nl:], s.spill[:nr])
	return nl
}
