package tree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// byRowTies is the reference's sort key: value, then row. It is written
// out here rather than taken from byValueRow so that the oracle shares
// no code with the presort.
func byRowTies(a, b pair) int {
	if c := byValue(a, b); c != 0 {
		return c
	}
	return a.i - b.i
}

// refGrad is the reference gradient-tree fit the presorted lists must
// reproduce. It grows the tree as the splitter does (candidate draw,
// tie-run walk, midpoint thresholds, stable partition of idx), but it
// sorts every candidate column at every node with slices.SortFunc on
// key and partitions into fresh slices. Its gain arithmetic is
// gradScan's, and it returns the nodes and the raw importances.
type refGrad struct {
	t     GradTree
	x     [][]float64
	g, h  []float64
	key   func(a, b pair) int
	rng   *rand.Rand
	feats []int
	nodes []node
	imp   []float64
}

func refGradFit(t GradTree, x [][]float64, g, h []float64, idx []int, key func(a, b pair) int) ([]node, []float64) {
	if t.MaxDepth <= 0 {
		t.MaxDepth = 6
	}
	p := len(x[0])
	r := &refGrad{t: t, x: x, g: g, h: h, key: key, feats: make([]int, p), imp: make([]float64, p)}
	if t.MaxFeatures > 0 && t.MaxFeatures < p {
		r.rng = rand.New(rand.NewSource(t.Seed))
	}
	r.grow(slices.Clone(idx), 0)
	return r.nodes, r.imp
}

func (r *refGrad) candidates() []int {
	for i := range r.feats {
		r.feats[i] = i
	}
	if r.rng == nil {
		return r.feats
	}
	r.rng.Shuffle(len(r.feats), func(i, j int) { r.feats[i], r.feats[j] = r.feats[j], r.feats[i] })
	return r.feats[:r.t.MaxFeatures]
}

func (r *refGrad) grow(idx []int, depth int) int {
	t := &r.t
	var gSum, hSum float64
	for _, i := range idx {
		gSum += r.g[i]
		hSum += r.h[i]
	}
	id := len(r.nodes)
	r.nodes = append(r.nodes, node{feature: -1, value: t.leafWeight(gSum, hSum)})
	if len(idx) < 2 || depth >= t.MaxDepth {
		return id
	}
	parent := t.score(gSum, hSum)
	feat, thr, best := -1, 0.0, 0.0
	for _, f := range r.candidates() {
		col := make([]pair, len(idx))
		for k, i := range idx {
			col[k] = pair{r.x[i][f], i}
		}
		slices.SortFunc(col, r.key)
		var gl, hl float64
		for lo := 0; lo < len(col)-1; {
			hi := lo + 1
			for hi < len(col) && col[hi].v == col[lo].v {
				hi++
			}
			for _, q := range col[lo:hi] {
				gl += r.g[q.i]
				hl += r.h[q.i]
			}
			gr, hr := gSum-gl, hSum-hl
			if hi < len(col) && hl >= t.MinChildWeight && hr >= t.MinChildWeight {
				if gain := float64(0.5*(t.score(gl, hl)+t.score(gr, hr)-parent)) - t.Gamma; gain > best {
					feat, thr, best = f, (col[hi-1].v+col[hi].v)/2, gain
				}
			}
			lo = hi
		}
	}
	if feat < 0 {
		return id
	}
	var left, right []int
	for _, i := range idx {
		if r.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return id
	}
	r.imp[feat] += best
	l := r.grow(left, depth+1)
	rt := r.grow(right, depth+1)
	n := &r.nodes[id]
	n.feature, n.threshold, n.left, n.right = feat, thr, l, rt
	return id
}

// fitDiff describes the first difference between two fits: a node's
// feature, children, threshold bits or leaf-value bits, or the bits of
// a raw importance, which sum the chosen splits' gains. It returns ""
// for identical fits.
func fitDiff(got, want []node, gotImp, wantImp []float64) string {
	for k := range min(len(got), len(want)) {
		a, b := got[k], want[k]
		if a.feature != b.feature || a.left != b.left || a.right != b.right ||
			math.Float64bits(a.threshold) != math.Float64bits(b.threshold) ||
			math.Float64bits(a.value) != math.Float64bits(b.value) {
			return fmt.Sprintf("node %d: got {f %d, l %d, r %d, thr %v, value %v}, want {f %d, l %d, r %d, thr %v, value %v}",
				k, a.feature, a.left, a.right, a.threshold, a.value, b.feature, b.left, b.right, b.threshold, b.value)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d nodes, want %d", len(got), len(want))
	}
	for f := range gotImp {
		if math.Float64bits(gotImp[f]) != math.Float64bits(wantImp[f]) {
			return fmt.Sprintf("importance %d: got %v, want %v", f, gotImp[f], wantImp[f])
		}
	}
	return ""
}

// gradCase is one gradient-tree fit over a shared design.
type gradCase struct {
	gt   GradTree
	g, h []float64
	idx  []int
}

// gradCases draws stages fits of gt's shape over the n rows of a
// design: fresh gradients each stage, classifier-style hessians when
// hess is set, and a subsample of frac·n rows (every row when frac
// is 1), as the boosters draw them.
func gradCases(gt GradTree, n, stages int, frac float64, hess bool, seed int64) []gradCase {
	rng := rand.New(rand.NewSource(seed))
	out := make([]gradCase, stages)
	for s := range out {
		c := gradCase{gt: gt, g: make([]float64, n), h: make([]float64, n)}
		c.gt.Seed = gt.Seed + int64(s)
		for i := range c.g {
			c.g[i] = rng.NormFloat64()
			c.h[i] = 1
			if hess {
				c.h[i] = 0.01 + rng.Float64()/4
			}
		}
		c.idx = rng.Perm(n)[:max(1, int(frac*float64(n)))]
		out[s] = c
	}
	return out
}

// TestPresortedGradTreeMatchesReference checks FitGrad over presorted
// columns against the per-node-sort reference, node for node and bit
// for bit, on random and tie-heavy designs, degenerate columns, tiny
// fits, and one Presorted shared by many stages of different sizes.
func TestPresortedGradTreeMatchesReference(t *testing.T) {
	random := func(n, p int, seed int64) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		x := make([][]float64, n)
		for i := range x {
			x[i] = fill(p, func(int) float64 { return rng.NormFloat64() })
		}
		return x
	}
	ties, _ := tieData(400, 7, 4, 51)
	constCol := random(150, 4, 52)
	for _, row := range constCol {
		row[2] = 1.5
	}
	allTied := make([][]float64, 80)
	for i := range allTied {
		allTied[i] = []float64{3, 3, -1}
	}
	alphabet := sortAlphabet[:len(sortAlphabet)-1] // no NaN
	special := make([][]float64, 120)
	rng := rand.New(rand.NewSource(53))
	for i := range special {
		special[i] = fill(3, func(int) float64 { return alphabet[rng.Intn(len(alphabet))] })
	}
	tiny := random(2, 3, 54)

	depth6 := GradTree{MaxDepth: 6, Lambda: 1, MinChildWeight: 1}
	cls := GradTree{MaxDepth: 6, Lambda: 1, MinChildWeight: 0.1}
	type presortCase struct {
		name string
		x    [][]float64
		fits []gradCase
	}
	cases := []presortCase{
		{name: "random", x: random(300, 6, 55), fits: gradCases(depth6, 300, 3, 1, false, 56)},
		{name: "random-hessian", x: random(300, 6, 57), fits: gradCases(cls, 300, 3, 0.7, true, 58)},
		{name: "ties", x: ties, fits: gradCases(depth6, 400, 3, 1, false, 59)},
		{name: "ties-subsample", x: ties, fits: gradCases(depth6, 400, 3, 0.55, false, 60)},
		{name: "ties-maxfeatures", x: ties, fits: gradCases(GradTree{MaxDepth: 5, Lambda: 1, Gamma: 0.1, MinChildWeight: 1, MaxFeatures: 3, Seed: 61}, 400, 3, 0.7, false, 62)},
		{name: "constant-column", x: constCol, fits: gradCases(cls, 150, 3, 0.8, true, 63)},
		{name: "all-tied", x: allTied, fits: gradCases(depth6, 80, 2, 0.5, false, 64)},
		{name: "special-values", x: special, fits: gradCases(GradTree{MaxDepth: 8, Lambda: 0.5}, 120, 3, 0.9, false, 65)},
		{name: "one-row", x: tiny, fits: gradCases(depth6, 2, 2, 0.5, false, 66)},
		{name: "two-rows", x: tiny, fits: gradCases(GradTree{MaxDepth: 3}, 2, 2, 1, false, 67)},
		{name: "unlimited-depth", x: ties, fits: gradCases(GradTree{MaxDepth: 40, Lambda: 1}, 400, 1, 0.5, false, 68)},
	}
	// One Presorted across many stages, as a booster shares it: the
	// subsample size changes between stages, so the node lists shrink
	// and regrow, and every fit must start from clean scratch.
	var shared []gradCase
	for s, frac := range []float64{1, 0.3, 0.9, 0.05, 1, 0.55, 0.55, 0.2, 0.75, 1} {
		shared = append(shared, gradCases(GradTree{MaxDepth: 6, Lambda: 1, MinChildWeight: 1, MaxFeatures: s % 3 * 3}, 400, 2, frac, s%2 == 1, int64(70+s))...)
	}
	cases = append(cases, presortCase{name: "shared-presort", x: ties, fits: shared})

	for _, c := range cases {
		cols := Presort(c.x)
		for s, fc := range c.fits {
			gt := fc.gt
			if err := gt.FitGrad(cols, fc.g, fc.h, fc.idx); err != nil {
				t.Fatalf("%s stage %d: %v", c.name, s, err)
			}
			want, wantImp := refGradFit(fc.gt, c.x, fc.g, fc.h, fc.idx, byRowTies)
			if d := fitDiff(gt.nodes, want, gt.importances, wantImp); d != "" {
				t.Errorf("%s stage %d: %s", c.name, s, d)
			}
		}
	}
}

// TestReferenceSeesTieOrder guards the oracle's power on the golden
// gradtree/subsample fit: a reference that leaves ties in the order an
// unstable value-only sort puts them must disagree with the presorted
// fit, in a node and not only in the importances' low bits. If it did
// not, TestPresortedGradTreeMatchesReference could not tell the two
// tie keys apart.
func TestReferenceSeesTieOrder(t *testing.T) {
	x, y := tieData(600, 9, 7, 31)
	g, h := make([]float64, len(y)), make([]float64, len(y))
	for i := range g {
		g[i], h[i] = 0.25-y[i], 1
	}
	rng := rand.New(rand.NewSource(32))
	for range x {
		rng.Intn(len(x)) // the golden fixture's bootstrap draw
	}
	idx := rng.Perm(len(x))[:420]
	gt := GradTree{MaxDepth: 6, Lambda: 1, MinChildWeight: 1, Seed: 10}
	got := gt
	if err := got.FitGrad(Presort(x), g, h, idx); err != nil {
		t.Fatal(err)
	}
	want, wantImp := refGradFit(gt, x, g, h, idx, byRowTies)
	if d := fitDiff(got.nodes, want, got.importances, wantImp); d != "" {
		t.Fatalf("presorted fit differs from the (value, row) reference: %s", d)
	}
	valueOnly, _ := refGradFit(gt, x, g, h, idx, byValue)
	if fitDiff(got.nodes, valueOnly, nil, nil) == "" {
		t.Error("a value-only tie key grew the same tree: the fixture has no order-sensitive tie run")
	}
}

// TestFitGradRejectsRepeatedRows checks that a row listed twice in idx
// is an error: the presorted lists hold each row once.
func TestFitGradRejectsRepeatedRows(t *testing.T) {
	x, y := tieData(50, 3, 4, 81)
	h := fill(len(y), func(int) float64 { return 1 })
	gt := &GradTree{MaxDepth: 3}
	if err := gt.FitGrad(Presort(x), y, h, []int{4, 9, 4, 17}); !errors.Is(err, errRepeatedRow) {
		t.Errorf("FitGrad with a repeated row: err %v, want %v", err, errRepeatedRow)
	}
}

// FuzzPresortedGradTree checks FitGrad over presorted columns against
// the per-node-sort reference on arbitrary small designs. The first
// byte picks the column count, the depth and whether to draw
// MaxFeatures, a subsample and classifier-style hessians; every row
// then takes one byte per column (a value of sortAlphabet without NaN,
// so ties, ±0 and ±Inf are common) and one for its gradient. Its seeds
// are checked in under testdata/fuzz/FuzzPresortedGradTree.
func FuzzPresortedGradTree(f *testing.F) {
	alphabet := sortAlphabet[:len(sortAlphabet)-1]
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode := data[0]
		p := 1 + int(mode%4)
		rows := data[1:]
		n := len(rows) / (p + 1)
		if n == 0 {
			return
		}
		x := make([][]float64, n)
		g, h := make([]float64, n), make([]float64, n)
		for i := range x {
			b := rows[i*(p+1) : (i+1)*(p+1)]
			x[i] = fill(p, func(j int) float64 { return alphabet[int(b[j])%len(alphabet)] })
			g[i] = float64(int(b[p])-128) / 16
			h[i] = 1
			if mode&0x40 != 0 {
				h[i] = 0.05 + float64(b[p]%10)/10
			}
		}
		gt := GradTree{MaxDepth: 1 + int(mode>>2)%4, Lambda: 1, MinChildWeight: 0.1, Seed: int64(mode)}
		if mode&0x80 != 0 {
			gt.MaxFeatures = 1
		}
		idx := rand.New(rand.NewSource(int64(len(data)))).Perm(n)
		if mode&0x20 != 0 {
			idx = idx[:max(1, n*2/3)]
		}
		got := gt
		if err := got.FitGrad(Presort(x), g, h, idx); err != nil {
			t.Fatal(err)
		}
		want, wantImp := refGradFit(gt, x, g, h, idx, byRowTies)
		if d := fitDiff(got.nodes, want, got.importances, wantImp); d != "" {
			t.Fatal(d)
		}
	})
}
