package ensemble

import (
	"math"
	"sort"
)

// binner maps continuous features into at most maxBins quantile bins,
// the shared discretization behind the LightGBM-style and
// CatBoost-style boosters.
type binner struct {
	// edges[j] holds ascending upper-edge thresholds for feature j; a
	// value v falls in the first bin whose edge is ≥ v.
	edges [][]float64
}

func newBinner(x [][]float64, maxBins int) *binner {
	if maxBins < 2 {
		maxBins = 2
	}
	if maxBins > 255 {
		maxBins = 255
	}
	p := 0
	if len(x) > 0 {
		p = len(x[0])
	}
	b := &binner{edges: make([][]float64, p)}
	vals := make([]float64, len(x))
	for j := 0; j < p; j++ {
		for i, row := range x {
			vals[i] = row[j]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		var edges []float64
		for k := 1; k < maxBins; k++ {
			pos := len(sorted) * k / maxBins
			if pos >= len(sorted) {
				break
			}
			e := sorted[pos]
			// An edge equal to the column max separates nothing.
			if e >= sorted[len(sorted)-1] {
				continue
			}
			if len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		b.edges[j] = edges
	}
	return b
}

// binValue returns the bin index of value v for feature j.
func (b *binner) binValue(j int, v float64) uint8 {
	edges := b.edges[j]
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

// binMatrix converts the raw feature matrix into bin indices.
func (b *binner) binMatrix(x [][]float64) [][]uint8 {
	out := make([][]uint8, len(x))
	for i, row := range x {
		r := make([]uint8, len(row))
		for j, v := range row {
			r[j] = b.binValue(j, v)
		}
		out[i] = r
	}
	return out
}

// allRows returns the row indices 0..n-1.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// numBins returns the bin count for feature j (edges+1).
func (b *binner) numBins(j int) int { return len(b.edges[j]) + 1 }

// maxNumBins returns the widest feature's bin count: a histogram of
// that many bins holds any feature's.
func (b *binner) maxNumBins() int {
	w := 1
	for j := range b.edges {
		w = max(w, b.numBins(j))
	}
	return w
}

// thresholdOf returns the raw-value threshold corresponding to
// "bin ≤ k", i.e. edges[k]. k must be < len(edges).
func (b *binner) thresholdOf(j, k int) float64 { return b.edges[j][k] }

// histSplit describes the best histogram split found for a set of rows.
type histSplit struct {
	feature int
	bin     int // split condition: bin ≤ bin goes left
	gain    float64
	ok      bool
}

// bestHistSplit scans all features' gradient histograms for the split
// maximizing the XGBoost gain over the given rows. hist is scratch of
// at least 2·b.maxNumBins() floats, shared by every call of a fit: each
// feature's histograms are cleared before they are filled.
func bestHistSplit(binned [][]uint8, b *binner, g, h []float64, rows []int, lambda, minChildHess float64, hist []float64) histSplit {
	var gTot, hTot float64
	for _, i := range rows {
		gTot += g[i]
		hTot += h[i]
	}
	parent := gTot * gTot / (hTot + lambda)
	best := histSplit{}
	p := len(b.edges)
	for j := 0; j < p; j++ {
		nb := b.numBins(j)
		if nb < 2 {
			continue
		}
		gHist, hHist := hist[:nb], hist[nb:2*nb]
		clear(hist[:2*nb])
		for _, i := range rows {
			bin := binned[i][j]
			gHist[bin] += g[i]
			hHist[bin] += h[i]
		}
		var gl, hl float64
		for k := 0; k < nb-1; k++ {
			gl += gHist[k]
			hl += hHist[k]
			gr := gTot - gl
			hr := hTot - hl
			if hl < minChildHess || hr < minChildHess {
				continue
			}
			gain := 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent)
			if gain > best.gain {
				best = histSplit{feature: j, bin: k, gain: gain, ok: true}
			}
		}
	}
	return best
}

// histNode is a node of a histogram-grown tree; leaves have feature=-1.
type histNode struct {
	feature   int
	threshold float64 // raw-value threshold (≤ goes left)
	left      int
	right     int
	value     float64
}

// leafWiseTree is a histogram-grown tree's flat node slice, root first.
type leafWiseTree []histNode

// PredictOne walks the tree from the root.
func (t leafWiseTree) PredictOne(row []float64) float64 {
	cur := 0
	for {
		n := &t[cur]
		if n.feature < 0 {
			return n.value
		}
		if row[n.feature] <= n.threshold {
			cur = n.left
		} else {
			cur = n.right
		}
	}
}

// leafWiseScratch is growLeafWise's scratch, allocated once per fit
// and reused by every tree: bestHistSplit's histograms, the tree's row
// permutation, in which every leaf owns a contiguous range, the
// right-hand rows of a partition in flight, and the open leaves.
type leafWiseScratch struct {
	hist   []float64
	perm   []int
	spill  []int
	leaves []leafRange
}

// leafRange is an open leaf of a leaf-wise tree: its node, its rows
// perm[lo:hi] and its best split.
type leafRange struct {
	nodeID int
	lo, hi int
	split  histSplit
}

// newLeafWiseScratch sizes the scratch for trees of at most maxLeaves
// leaves over nRows rows binned by b.
func newLeafWiseScratch(b *binner, nRows, maxLeaves int) *leafWiseScratch {
	return &leafWiseScratch{
		hist:   make([]float64, 2*b.maxNumBins()),
		perm:   make([]int, nRows),
		spill:  make([]int, nRows),
		leaves: make([]leafRange, 0, maxLeaves),
	}
}

// growLeafWise grows a tree leaf-wise (best-first) to at most
// maxLeaves leaves — LightGBM's growth strategy — returning the flat
// node slice. A split partitions its leaf's range of the row
// permutation in place, stably: the left rows stay in the range's
// front in their order, the right rows go through the spill buffer to
// its back in theirs, so every child sums its rows in the order the
// parent held them.
func growLeafWise(binned [][]uint8, b *binner, g, h []float64, rows []int,
	maxLeaves int, lambda, minChildHess float64, s *leafWiseScratch) leafWiseTree {
	leafValue := func(rs []int) float64 {
		var gs, hs float64
		for _, i := range rs {
			gs += g[i]
			hs += h[i]
		}
		return -gs / (hs + lambda)
	}
	perm := s.perm[:len(rows)]
	copy(perm, rows)
	nodes := make(leafWiseTree, 1, 2*maxLeaves-1)
	nodes[0] = histNode{feature: -1, value: leafValue(perm)}
	leaves := append(s.leaves[:0], leafRange{nodeID: 0, lo: 0, hi: len(perm),
		split: bestHistSplit(binned, b, g, h, perm, lambda, minChildHess, s.hist)})
	for len(leaves) < maxLeaves {
		// Pick the leaf with the highest achievable gain.
		bestIdx, bestGain := -1, 0.0
		for i, lf := range leaves {
			if lf.split.ok && lf.split.gain > bestGain {
				bestIdx, bestGain = i, lf.split.gain
			}
		}
		if bestIdx < 0 {
			break
		}
		lf := leaves[bestIdx]
		thr := b.thresholdOf(lf.split.feature, lf.split.bin)
		span := perm[lf.lo:lf.hi]
		nl, nr := 0, 0
		for _, i := range span {
			if int(binned[i][lf.split.feature]) <= lf.split.bin {
				span[nl] = i
				nl++
			} else {
				s.spill[nr] = i
				nr++
			}
		}
		copy(span[nl:], s.spill[:nr])
		if nl == 0 || nr == 0 {
			leaves[bestIdx].split.ok = false
			continue
		}
		leftRows, rightRows := span[:nl], span[nl:]
		leftID := len(nodes)
		nodes = append(nodes, histNode{feature: -1, value: leafValue(leftRows)})
		rightID := len(nodes)
		nodes = append(nodes, histNode{feature: -1, value: leafValue(rightRows)})
		nodes[lf.nodeID] = histNode{feature: lf.split.feature, threshold: thr, left: leftID, right: rightID}
		mid := lf.lo + nl
		leaves[bestIdx] = leafRange{nodeID: leftID, lo: lf.lo, hi: mid,
			split: bestHistSplit(binned, b, g, h, leftRows, lambda, minChildHess, s.hist)}
		leaves = append(leaves, leafRange{nodeID: rightID, lo: mid, hi: lf.hi,
			split: bestHistSplit(binned, b, g, h, rightRows, lambda, minChildHess, s.hist)})
	}
	s.leaves = leaves
	return nodes
}

// obliviousTree is a CatBoost-style symmetric tree: the same
// (feature, threshold) condition is applied at every node of a level,
// so a depth-d tree has exactly 2^d leaves indexed by the condition
// bits.
type obliviousTree struct {
	features   []int
	thresholds []float64
	leaves     []float64
}

// PredictOne indexes the leaf by the row's condition bits.
func (t *obliviousTree) PredictOne(row []float64) float64 {
	idx := 0
	for l, f := range t.features {
		if row[f] > t.thresholds[l] {
			idx |= 1 << l
		}
	}
	return t.leaves[idx]
}

// growOblivious grows a symmetric tree of the given depth by greedily
// choosing, per level, the single (feature, bin) condition that
// maximizes total gain across all current partitions.
func growOblivious(binned [][]uint8, b *binner, g, h []float64, rows []int,
	depth int, lambda float64) *obliviousTree {
	part := make([]int, len(binned)) // partition index per row (-1 = unused)
	for i := range part {
		part[i] = -1
	}
	for _, i := range rows {
		part[i] = 0
	}
	numParts := 1
	t := &obliviousTree{}
	p := len(b.edges)
	w := b.maxNumBins()
	for level := 0; level < depth; level++ {
		// One slab per level: per partition a g and an h histogram of w
		// bins, the totals and the running left sums, cleared before
		// each feature.
		slab := make([]float64, numParts*(2*w+4))
		gHist, hHist := slab[:numParts*w], slab[numParts*w:2*numParts*w]
		sums := slab[2*numParts*w:]
		totG, totH, gl, hl := sums[:numParts], sums[numParts:2*numParts], sums[2*numParts:3*numParts], sums[3*numParts:]
		bestFeat, bestBin, bestGain := -1, -1, 0.0
		for j := 0; j < p; j++ {
			nb := b.numBins(j)
			if nb < 2 {
				continue
			}
			clear(slab)
			for _, i := range rows {
				q := part[i]
				bin := int(binned[i][j])
				gHist[q*w+bin] += g[i]
				hHist[q*w+bin] += h[i]
				totG[q] += g[i]
				totH[q] += h[i]
			}
			for k := 0; k < nb-1; k++ {
				var gain float64
				for q := 0; q < numParts; q++ {
					gl[q] += gHist[q*w+k]
					hl[q] += hHist[q*w+k]
					if totH[q] <= 0 {
						continue // empty partition contributes nothing
					}
					gr := totG[q] - gl[q]
					hr := totH[q] - hl[q]
					gain += float64(0.5 * (gl[q]*gl[q]/(hl[q]+lambda) +
						gr*gr/(hr+lambda) -
						totG[q]*totG[q]/(totH[q]+lambda)))
				}
				if gain > bestGain {
					bestFeat, bestBin, bestGain = j, k, gain
				}
			}
		}
		if bestFeat < 0 {
			break
		}
		t.features = append(t.features, bestFeat)
		t.thresholds = append(t.thresholds, b.thresholdOf(bestFeat, bestBin))
		for _, i := range rows {
			if int(binned[i][bestFeat]) > bestBin {
				part[i] |= 1 << level
			}
		}
		numParts <<= 1
	}
	// Leaf values.
	if len(t.features) == 0 {
		var gs, hs float64
		for _, i := range rows {
			gs += g[i]
			hs += h[i]
		}
		t.leaves = []float64{-gs / (hs + lambda)}
		return t
	}
	n := 1 << len(t.features)
	gs := make([]float64, n)
	hs := make([]float64, n)
	for _, i := range rows {
		gs[part[i]] += g[i]
		hs[part[i]] += h[i]
	}
	t.leaves = make([]float64, n)
	for q := range t.leaves {
		t.leaves[q] = -gs[q] / (hs[q] + lambda)
		if math.IsNaN(t.leaves[q]) {
			t.leaves[q] = 0
		}
	}
	return t
}
