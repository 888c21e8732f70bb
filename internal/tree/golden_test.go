package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tieData draws n rows of p integer-valued columns (at most levels
// distinct values each, so nearly every sorted scan walks long runs of
// ties) and a target that depends on the first two columns plus noise.
func tieData(n, p, levels int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = float64(rng.Intn(levels))
		}
		x[i] = row
		y[i] = row[0] - 0.5*row[1] + rng.NormFloat64()
	}
	return x, y
}

// classesOf bins a continuous target into k integer classes.
func classesOf(y []float64, k int) []int {
	lo, hi := slices.Min(y), slices.Max(y)
	out := make([]int, len(y))
	for i, v := range y {
		c := int(float64(k) * (v - lo) / (hi - lo))
		out[i] = min(c, k-1)
	}
	return out
}

// treeDigest hashes a fitted tree's structure bit for bit: every node's
// feature, children, threshold, value and class distribution, then the
// raw importance accumulators.
func treeDigest(nodes []node, importances []float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, n := range nodes {
		put(uint64(int64(n.feature)))
		put(uint64(int64(n.left)))
		put(uint64(int64(n.right)))
		put(math.Float64bits(n.threshold))
		put(math.Float64bits(n.value))
		for _, p := range n.classDist {
			put(math.Float64bits(p))
		}
	}
	for _, v := range importances {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTreeDigests pins every tree kind bit for bit on tie-heavy
// data. The digests were recorded from the per-kind split scans that
// predate the shared split finder; any change to the candidate-feature
// draw, the sort's tie order, the boundary walk, the threshold rule or
// the gain arithmetic shows up here. The two gradtree pins were
// re-recorded once when the gradient tree moved to presorted columns:
// its tie runs are now summed in row order rather than in the order
// the per-node sort left them.
func TestGoldenTreeDigests(t *testing.T) {
	x, y := tieData(600, 9, 7, 31)
	yc := classesOf(y, 3)

	// Bootstrap rows, as the random forest draws them: duplicated rows
	// add ties on every column.
	rng := rand.New(rand.NewSource(32))
	xb := make([][]float64, len(x))
	yb := make([]float64, len(x))
	ycb := make([]int, len(x))
	for i := range xb {
		j := rng.Intn(len(x))
		xb[i], yb[i], ycb[i] = x[j], y[j], yc[j]
	}

	// A permuted subsample, as the XGB booster draws it.
	sub := rng.Perm(len(x))[:420]
	g := make([]float64, len(x))
	h := make([]float64, len(x))
	for i := range g {
		g[i] = 0.25 - y[i]
		h[i] = 1
	}

	fitReg := func(o Options, x [][]float64, y []float64) string {
		tr := NewRegressor(o)
		if err := tr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return treeDigest(tr.nodes, tr.importances)
	}
	fitClf := func(o Options, x [][]float64, y []int) string {
		tr := NewClassifier(o, 3)
		if err := tr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return treeDigest(tr.nodes, tr.importances)
	}
	fitGrad := func(gt *GradTree) string {
		if err := gt.FitGrad(Presort(x), g, h, sub); err != nil {
			t.Fatal(err)
		}
		return treeDigest(gt.nodes, gt.importances)
	}

	cases := []struct {
		name, want string
		got        func() string
	}{
		{"regressor/bootstrap-maxfeatures",
			"4e992a61a3430bff1d3b016fbdeccc3b543d68e3b3932331f8c45d6b90d75b61",
			func() string { return fitReg(Options{MaxDepth: 8, MaxFeatures: 3, Seed: 5}, xb, yb) }},
		{"regressor/unlimited-minleaf",
			"1bc7bd9174e56a30d94843a80c2e4c7b49ee0fc38f5c2ca39eefc3aca43c025a",
			func() string { return fitReg(Options{MinSamplesLeaf: 3, Seed: 6}, x, y) }},
		{"regressor/random-thresholds",
			"82a6d13db496564f0859e5613da880ffa2a94aaf462cc714495a4d6ec8bb825a",
			func() string {
				return fitReg(Options{MaxDepth: 10, MaxFeatures: 4, RandomThresholds: true, Seed: 7}, x, y)
			}},
		{"classifier/bootstrap-maxfeatures",
			"eade02a1724e22c47f49fe2d79d02419f322be27d821ab4489a54f1bdfbbb641",
			func() string { return fitClf(Options{MaxDepth: 8, MaxFeatures: 3, Seed: 8}, xb, ycb) }},
		{"classifier/random-thresholds",
			"bfe90166eceaf4127b3646a043cf99dbe16b1b8cc06eae112669e960c5706c10",
			func() string {
				return fitClf(Options{MaxDepth: 10, MaxFeatures: 4, RandomThresholds: true, Seed: 9}, x, yc)
			}},
		{"gradtree/subsample",
			"35616668378a06696f2839a3f12813202dddd34e7d34d25877eddcb0c9d62bed",
			func() string {
				return fitGrad(&GradTree{MaxDepth: 6, Lambda: 1, MinChildWeight: 1, Seed: 10})
			}},
		{"gradtree/subsample-maxfeatures",
			"25902903d91057c2d3412289778587b3856d094cc1cb0c261cca91a57cbf942a",
			func() string {
				return fitGrad(&GradTree{MaxDepth: 6, Lambda: 1, Gamma: 0.1, MinChildWeight: 1, MaxFeatures: 4, Seed: 11})
			}},
	}
	for _, c := range cases {
		if got := c.got(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestFitGradLeavesIdxUntouched checks that FitGrad partitions a
// private copy of the row subset: the booster reuses its idx slice.
func TestFitGradLeavesIdxUntouched(t *testing.T) {
	x, y := tieData(300, 5, 4, 41)
	h := make([]float64, len(y))
	for i := range h {
		h[i] = 1
	}
	idx := rand.New(rand.NewSource(42)).Perm(len(x))[:200]
	want := slices.Clone(idx)
	gt := &GradTree{MaxDepth: 6, Lambda: 1, MinChildWeight: 1}
	if err := gt.FitGrad(Presort(x), y, h, idx); err != nil {
		t.Fatal(err)
	}
	if gt.NumNodes() < 3 {
		t.Fatalf("tree did not split (%d nodes)", gt.NumNodes())
	}
	if !slices.Equal(idx, want) {
		t.Error("FitGrad reordered the caller's idx")
	}
}
