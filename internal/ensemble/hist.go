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

// growLeafWise grows a tree leaf-wise (best-first) to at most
// maxLeaves leaves — LightGBM's growth strategy — returning the flat
// node slice. hist is bestHistSplit's scratch.
func growLeafWise(binned [][]uint8, b *binner, g, h []float64, rows []int,
	maxLeaves int, lambda, minChildHess float64, hist []float64) leafWiseTree {
	type leaf struct {
		nodeID int
		rows   []int
		split  histSplit
	}
	leafValue := func(rs []int) float64 {
		var gs, hs float64
		for _, i := range rs {
			gs += g[i]
			hs += h[i]
		}
		return -gs / (hs + lambda)
	}
	nodes := []histNode{{feature: -1, value: leafValue(rows)}}
	leaves := []leaf{{nodeID: 0, rows: rows, split: bestHistSplit(binned, b, g, h, rows, lambda, minChildHess, hist)}}
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
		var leftRows, rightRows []int
		for _, i := range lf.rows {
			if int(binned[i][lf.split.feature]) <= lf.split.bin {
				leftRows = append(leftRows, i)
			} else {
				rightRows = append(rightRows, i)
			}
		}
		if len(leftRows) == 0 || len(rightRows) == 0 {
			leaves[bestIdx].split.ok = false
			continue
		}
		leftID := len(nodes)
		nodes = append(nodes, histNode{feature: -1, value: leafValue(leftRows)})
		rightID := len(nodes)
		nodes = append(nodes, histNode{feature: -1, value: leafValue(rightRows)})
		nodes[lf.nodeID] = histNode{feature: lf.split.feature, threshold: thr, left: leftID, right: rightID}
		leaves[bestIdx] = leaf{nodeID: leftID, rows: leftRows, split: bestHistSplit(binned, b, g, h, leftRows, lambda, minChildHess, hist)}
		leaves = append(leaves, leaf{nodeID: rightID, rows: rightRows, split: bestHistSplit(binned, b, g, h, rightRows, lambda, minChildHess, hist)})
	}
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
