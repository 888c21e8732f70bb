package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// boundaryScanner is the per-boundary split search that scan replaced,
// kept as its reference: reset starts a feature scan with every row, in
// sorted order, right; push moves a run of tied rows from the right
// child to the left; gain scores the boundary with left and right rows
// on each side, and returns 0 for a split the kind forbids. refBest
// walks the tie runs and calls it once per boundary.
type boundaryScanner interface {
	scanner
	reset(sorted []pair)
	push(run []pair)
	gain(left, right int) float64
}

// refGradScan, refRegScan and refClfScan hold the accumulators that the
// per-boundary walk kept on each scanner, around a scanner of their own
// for the node totals that open sets.
type refGradScan struct {
	*gradScan
	gl, hl float64
}

func (s *refGradScan) reset([]pair) { s.gl, s.hl = 0, 0 }

func (s *refGradScan) push(run []pair) {
	for _, p := range run {
		s.gl += s.g[p.i]
		s.hl += s.h[p.i]
	}
}

func (s *refGradScan) gain(int, int) float64 {
	t := s.t
	gr := s.gSum - s.gl
	hr := s.hSum - s.hl
	if s.hl < t.MinChildWeight || hr < t.MinChildWeight {
		return 0
	}
	return float64(0.5*(t.score(s.gl, s.hl)+t.score(gr, hr)-s.parentScore)) - t.Gamma
}

type refRegScan struct {
	*regScan
	lSum, lSumSq, tSum, tSumSq float64
}

func (r *refRegScan) reset(sorted []pair) {
	r.lSum, r.lSumSq, r.tSum, r.tSumSq = 0, 0, 0, 0
	for _, p := range sorted {
		r.tSum += r.y[p.i]
		r.tSumSq += float64(r.y[p.i] * r.y[p.i])
	}
}

func (r *refRegScan) push(run []pair) {
	for _, p := range run {
		r.lSum += r.y[p.i]
		r.lSumSq += float64(r.y[p.i] * r.y[p.i])
	}
}

func (r *refRegScan) gain(left, right int) float64 {
	ln, rn := float64(left), float64(right)
	rSum := r.tSum - r.lSum
	rSumSq := r.tSumSq - r.lSumSq
	childImp := (r.lSumSq - r.lSum*r.lSum/ln) + (rSumSq - rSum*rSum/rn)
	return r.parentImp - childImp
}

type refClfScan struct {
	*clfScan
	left, right []float64
}

func (c *refClfScan) reset([]pair) {
	copy(c.right, c.total)
	clear(c.left)
}

func (c *refClfScan) push(run []pair) {
	for _, p := range run {
		c.left[c.y[p.i]]++
		c.right[c.y[p.i]]--
	}
}

func (c *refClfScan) gain(left, right int) float64 {
	return c.parentImp - giniTimesN(c.left, float64(left)) - giniTimesN(c.right, float64(right))
}

// refBest is splitter.best's sorted-column search as it was before
// scan: a walk over each column's tie runs that pushes every run and
// scores every boundary leaving MinSamplesLeaf rows on each side,
// keeping the first strictly larger gain.
func refBest(s *splitter, sc boundaryScanner, idx []int, off int) (feat int, thr, gain float64) {
	feat = -1
	for _, f := range s.candidates() {
		var p []pair
		if s.cols != nil {
			p = s.cols.segment(f, off, len(idx))
		} else {
			p = s.sorted(idx, f)
		}
		sc.reset(p)
		for lo := 0; lo < len(p)-1; {
			hi := lo + 1
			for hi < len(p) && p[hi].v == p[lo].v {
				hi++
			}
			sc.push(p[lo:hi])
			if hi < len(p) && hi >= s.o.MinSamplesLeaf && len(p)-hi >= s.o.MinSamplesLeaf {
				if g := sc.gain(hi, len(p)-hi); g > gain {
					feat, thr, gain = f, (p[hi-1].v+p[hi].v)/2, g
				}
			}
			lo = hi
		}
	}
	return feat, thr, gain
}

// refFit is splitter.fit with refBest in place of best.
func refFit(s *splitter, sc boundaryScanner, idx []int) ([]node, []float64) {
	s.importances = make([]float64, len(s.feats))
	refGrow(s, sc, idx, 0, 0)
	return s.nodes, s.importances
}

func refGrow(s *splitter, sc boundaryScanner, idx []int, off, depth int) int {
	id := len(s.nodes)
	leaf, pure := sc.open(idx)
	s.nodes = append(s.nodes, leaf)
	if pure || len(idx) < s.o.MinSamplesSplit || (s.o.MaxDepth > 0 && depth >= s.o.MaxDepth) {
		return id
	}
	feat, thr, gain := refBest(s, sc, idx, off)
	if feat < 0 || gain <= s.o.MinImpurityDecr {
		return id
	}
	nl := s.partition(idx, feat, thr)
	if nl < s.o.MinSamplesLeaf || len(idx)-nl < s.o.MinSamplesLeaf {
		return id
	}
	s.importances[feat] += gain
	if s.cols != nil && (s.o.MaxDepth <= 0 || depth+1 < s.o.MaxDepth) {
		s.cols.split(idx, off, nl)
	}
	left := refGrow(s, sc, idx[:nl], off, depth+1)
	right := refGrow(s, sc, idx[nl:], off+nl, depth+1)
	n := &s.nodes[id]
	n.feature, n.threshold, n.left, n.right = feat, thr, left, right
	return id
}

// Scanner kinds of a scanCase.
const (
	kindGrad = iota
	kindReg
	kindClf
	numKinds
)

var kindNames = [numKinds]string{"grad", "reg", "clf"}

const scanClasses = 3

// scanCase is one split search over a design: the scanner kind and its
// targets (gradients and hessians, targets, or classes), the gradient
// kind's MinChildWeight, Gamma and Lambda, the splitter's options, and
// whether the splitter reads presorted columns or sorts per node.
type scanCase struct {
	kind    int
	x       [][]float64
	y, h    []float64
	classes []int
	gt      GradTree
	o       Options
	presort bool
}

func (c *scanCase) String() string {
	return fmt.Sprintf("%s n=%d p=%d minLeaf=%d maxFeatures=%d minChildWeight=%v gamma=%v presort=%v",
		kindNames[c.kind], len(c.x), len(c.x[0]), c.o.MinSamplesLeaf, c.o.MaxFeatures, c.gt.MinChildWeight, c.gt.Gamma, c.presort)
}

// scanners returns a fresh scanner of the case's kind and a reference
// one that shares nothing with it.
func (c *scanCase) scanners() (scanner, boundaryScanner) {
	switch c.kind {
	case kindGrad:
		gt := c.gt
		return &gradScan{t: &gt, g: c.y, h: c.h}, &refGradScan{gradScan: &gradScan{t: &gt, g: c.y, h: c.h}}
	case kindReg:
		return &regScan{y: c.y}, &refRegScan{regScan: &regScan{y: c.y}}
	}
	counts := func() []float64 { return make([]float64, scanClasses) }
	clf := func() *clfScan { return &clfScan{y: c.classes, total: counts(), left: counts(), right: counts()} }
	return clf(), &refClfScan{clfScan: clf(), left: counts(), right: counts()}
}

// splitter returns a fresh splitter for a fit over rows idx and the rows
// to hand it: a copy of idx, or the presorted fit's own copy.
func (c *scanCase) splitter(idx []int) (*splitter, []int) {
	if !c.presort {
		return newSplitter(c.x, len(c.x), c.o, nil), slices.Clone(idx)
	}
	cols := Presort(c.x)
	rows, err := cols.fill(idx)
	if err != nil {
		panic(err) // the cases never repeat a row
	}
	return newSplitter(c.x, len(idx), c.o, cols), rows
}

// diff compares the split search over rows idx with the reference. It
// checks the bits of best's (feature, threshold, gain) at the node of
// rows idx, then grows the whole tree both ways and compares it node
// for node (the classifier's distributions too), and it returns "" when
// all agree.
func (c *scanCase) diff(idx []int) string {
	s, rows := c.splitter(idx)
	rs, refRows := c.splitter(idx)
	sc, ref := c.scanners()
	sc.open(rows)
	ref.open(refRows)
	f, thr, g := s.best(sc, rows, 0)
	wf, wthr, wg := refBest(rs, ref, refRows, 0)
	if f != wf || math.Float64bits(thr) != math.Float64bits(wthr) || math.Float64bits(g) != math.Float64bits(wg) {
		return fmt.Sprintf("best over %d rows: got (%d, %v, %v), want (%d, %v, %v)", len(idx), f, thr, g, wf, wthr, wg)
	}

	s, rows = c.splitter(idx)
	rs, refRows = c.splitter(idx)
	sc, ref = c.scanners()
	nodes, imp := s.fit(sc, rows, nil)
	want, wantImp := refFit(rs, ref, refRows)
	if d := fitDiff(nodes, want, imp, wantImp); d != "" {
		return fmt.Sprintf("tree over %d rows: %s", len(idx), d)
	}
	if c.kind == kindClf {
		got, want := sc.(*clfScan).dists, ref.(*refClfScan).dists
		if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Sprintf("tree over %d rows: class distributions %v, want %v", len(idx), got, want)
		}
	}
	return ""
}

// scanColumns draws an n×3 design: a column over all of sortAlphabet
// (NaN, ±0 and ±Inf included), a tie-heavy column of a few levels, and
// a column of distinct values. A design of no rows gets one, so that
// the splitter can read the column count; the cases then use none.
func scanColumns(rng *rand.Rand, n int) [][]float64 {
	x := make([][]float64, max(n, 1))
	for i := range x {
		x[i] = []float64{sortAlphabet[rng.Intn(len(sortAlphabet))], float64(rng.Intn(4)), rng.NormFloat64()}
	}
	return x
}

// TestColumnScanMatchesReference checks every scanner's one-call column
// scan against the per-boundary reference, bit for bit, over the three
// kinds, sorted and presorted columns, MinSamplesLeaf 1 and 3, the
// gradient kind's MinChildWeight 0.1 and 1 with unit or
// classifier-style hessians and Gamma 0 and 0.3, all features or two
// drawn per node, and node sizes from none to 300 rows.
func TestColumnScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{0, 1, 2, 3, 7, 40, 300} {
		x := scanColumns(rng, n)
		y, h, classes := make([]float64, len(x)), make([]float64, len(x)), make([]int, len(x))
		for i := range y {
			y[i], h[i], classes[i] = rng.NormFloat64(), 0.05+rng.Float64()/4, rng.Intn(scanClasses)
		}
		ones := fill(len(x), func(int) float64 { return 1 })
		perm := rng.Perm(n)
		var cases []scanCase
		for kind := range numKinds {
			for _, presort := range []bool{false, true} {
				for _, minLeaf := range []int{1, 3} {
					for _, maxFeatures := range []int{0, 2} {
						c := scanCase{kind: kind, x: x, y: y, h: ones, classes: classes, presort: presort,
							o: Options{MaxDepth: 6, MinSamplesLeaf: minLeaf, MaxFeatures: maxFeatures, Seed: int64(n)}.normalized()}
						if kind != kindGrad {
							cases = append(cases, c)
							continue
						}
						for _, hess := range [][]float64{ones, h} {
							for _, mcw := range []float64{0.1, 1} {
								for _, gamma := range []float64{0, 0.3} {
									c.h, c.gt = hess, GradTree{MinChildWeight: mcw, Gamma: gamma, Lambda: 1}
									cases = append(cases, c)
								}
							}
						}
					}
				}
			}
		}
		for _, c := range cases {
			// Every node size up to 2, half the rows, and all of them.
			for _, m := range []int{0, 1, 2, n / 2, n} {
				if m > n {
					continue
				}
				if d := c.diff(perm[:m]); d != "" {
					t.Fatalf("%v: %s", &c, d)
				}
			}
		}
	}
}

// FuzzColumnScan checks every scanner's one-call column scan against the
// per-boundary reference on arbitrary small designs. The first byte
// picks the kind, MinSamplesLeaf (1 or 3), the gradient kind's
// MinChildWeight (0.1 or 1) and Gamma (0 or 0.25), presorted columns,
// classifier-style hessians and MaxFeatures 1; the second byte picks the
// column count and the depth. Every row then takes one byte per column,
// a value of sortAlphabet (NaN included), and one for its target. Its
// seeds are checked in under testdata/fuzz/FuzzColumnScan.
func FuzzColumnScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode, shape := data[0], data[1]
		p := 1 + int(shape%3)
		rows := data[2:]
		n := len(rows) / (p + 1)
		c := &scanCase{
			kind:    int(mode % numKinds),
			x:       make([][]float64, max(n, 1)),
			y:       make([]float64, max(n, 1)),
			h:       make([]float64, max(n, 1)),
			classes: make([]int, max(n, 1)),
			gt:      GradTree{MinChildWeight: 0.1, Lambda: 1},
			presort: mode&0x20 != 0,
			o:       Options{MaxDepth: 1 + int(shape>>2)%5, MinSamplesLeaf: 1, Seed: int64(mode)},
		}
		if mode&0x04 != 0 {
			c.o.MinSamplesLeaf = 3
		}
		if mode&0x08 != 0 {
			c.gt.MinChildWeight = 1
		}
		if mode&0x10 != 0 {
			c.gt.Gamma = 0.25
		}
		if mode&0x80 != 0 {
			c.o.MaxFeatures = 1
		}
		c.o = c.o.normalized()
		c.x[0] = make([]float64, p)
		for i := range n {
			b := rows[i*(p+1) : (i+1)*(p+1)]
			c.x[i] = fill(p, func(j int) float64 { return sortAlphabet[int(b[j])%len(sortAlphabet)] })
			c.y[i] = float64(int(b[p])-128) / 16
			c.classes[i] = int(b[p]) % scanClasses
			c.h[i] = 1
			if mode&0x40 != 0 {
				c.h[i] = 0.05 + float64(b[p]%10)/10
			}
		}
		if d := c.diff(rand.New(rand.NewSource(int64(len(data)))).Perm(n)); d != "" {
			t.Fatalf("%v: %s", c, d)
		}
	})
}
