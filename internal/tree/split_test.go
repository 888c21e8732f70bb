package tree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// byValue is the comparator the split scan sorted with through
// slices.SortFunc before sortPairs inlined it; it stays as the
// reference the inlined copy must agree with.
func byValue(a, b pair) int {
	if a.v < b.v {
		return -1
	}
	if a.v > b.v {
		return 1
	}
	return 0
}

// sortShapes are column shapes that between them reach every branch of
// the pdqsort copy: tie-heavy levels (partitionEqual), descending runs
// (the reverse hint), nearly sorted columns (partialInsertionSort's
// shifts), organ-pipe and sawtooth columns (breakPatterns), and the
// values whose order is special: NaN, ±0 and ±Inf.
var sortShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"levels", func(rng *rand.Rand, n int) []float64 {
		levels := 1 + rng.Intn(40)
		return fill(n, func(int) float64 { return float64(rng.Intn(levels)) })
	}},
	{"equal", func(_ *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return 2.5 })
	}},
	{"few-levels", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return float64(rng.Intn(3)) })
	}},
	{"descending", func(_ *rand.Rand, n int) []float64 {
		return fill(n, func(k int) float64 { return float64(n - k) })
	}},
	{"descending-ties", func(rng *rand.Rand, n int) []float64 {
		v := fill(n, func(k int) float64 { return float64(n - k) })
		for range 1 + n/20 {
			if k := rng.Intn(max(n-1, 1)); k+1 < n {
				v[k] = v[k+1]
			}
		}
		return v
	}},
	{"ascending-swaps", func(rng *rand.Rand, n int) []float64 {
		v := fill(n, func(k int) float64 { return float64(k / 2) })
		for s := 0; s < 1+rng.Intn(4) && n > 1; s++ {
			a, b := rng.Intn(n), rng.Intn(n)
			v[a], v[b] = v[b], v[a]
		}
		return v
	}},
	{"organ-pipe", func(_ *rand.Rand, n int) []float64 {
		return fill(n, func(k int) float64 { return float64(min(k, n-1-k)) })
	}},
	{"sawtooth", func(rng *rand.Rand, n int) []float64 {
		period := 2 + rng.Intn(16)
		return fill(n, func(k int) float64 { return float64(k % period) })
	}},
	{"special", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return sortAlphabet[rng.Intn(len(sortAlphabet))] })
	}},
}

// sortAlphabet is a few levels and the values whose order is special,
// ascending except NaN, which no value is less or greater than.
var sortAlphabet = [...]float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, math.Inf(1), math.NaN()}

func fill(n int, at func(k int) float64) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = at(k)
	}
	return v
}

// sortCase lays the values out as the rows of one feature column, in
// buffer order but under shuffled row numbers when shuffle is set, and
// returns the column and the rows to sort.
func sortCase(rng *rand.Rand, vals []float64, shuffle bool) (x [][]float64, idx []int) {
	idx = identity(len(vals))
	if shuffle {
		idx = rng.Perm(len(vals))
	}
	// newSplitter reads the feature count from x[0], so an empty case
	// still gets one row.
	x = make([][]float64, max(len(vals), 1))
	x[0] = []float64{0}
	for k, i := range idx {
		x[i] = []float64{vals[k]}
	}
	return x, idx
}

// TestSortedMatchesSortSlice guards the bit-identity of the shared split
// scan. The per-kind scans it replaced sorted row indices with
// sort.Slice and the less function x[a] < x[b], and the splitter then
// sorted (value, row) pairs with slices.SortFunc(p, byValue); sortPairs
// is Go's pdqsort specialized to pairs. All three must yield the same
// permutation, ties and NaN included, on every shape and length that
// reaches a different branch of the sort.
func TestSortedMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var sizes []int
	for n := 0; n <= 13; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 49, 50, 51)
	for range 12 {
		sizes = append(sizes, 14+rng.Intn(3000-14+1))
	}
	sizes = append(sizes, 3000)
	for _, shape := range sortShapes {
		for _, n := range sizes {
			for _, shuffle := range []bool{false, true} {
				vals := shape.gen(rng, n)
				x, idx := sortCase(rng, vals, shuffle)
				in := make([]pair, n)
				for k, i := range idx {
					in[k] = pair{vals[k], i}
				}
				ref := slices.Clone(in)
				slices.SortFunc(ref, byValue)
				legacy := slices.Clone(idx)
				sort.Slice(legacy, func(a, b int) bool { return x[legacy[a]][0] < x[legacy[b]][0] })

				got := newSplitter(x, n, Options{}, nil).sorted(idx, 0)
				for k, p := range got {
					if p.i != ref[k].i || p.i != legacy[k] {
						t.Fatalf("%s n=%d shuffle=%v: position %d holds row %d; slices.SortFunc put row %d there, sort.Slice row %d",
							shape.name, n, shuffle, k, p.i, ref[k].i, legacy[k])
					}
				}

				// With no bad-pivot budget left every range longer than
				// the insertion-sort cutoff goes to heapsort, which must
				// still return a permutation, sorted unless NaN leaves
				// no order to check.
				heap := slices.Clone(in)
				pdqsortPairs(heap, 0, n, 0)
				checkPermutation(t, heap, in, !slices.ContainsFunc(vals, math.IsNaN))
			}
		}
	}
}

// checkPermutation fails unless p holds exactly the pairs of from, each
// once, and, when sorted is set, no value in p is less than the one
// before it.
func checkPermutation(t *testing.T, p, from []pair, sorted bool) {
	t.Helper()
	bits := make(map[int]uint64, len(from))
	for _, q := range from {
		bits[q.i] = math.Float64bits(q.v)
	}
	for k, q := range p {
		b, ok := bits[q.i]
		if !ok || b != math.Float64bits(q.v) {
			t.Fatalf("position %d holds a duplicated or altered row %d", k, q.i)
		}
		delete(bits, q.i)
		if sorted && k > 0 && q.v < p[k-1].v {
			t.Fatalf("position %d (%v) sorts before position %d (%v)", k, q.v, k-1, p[k-1].v)
		}
	}
}

// FuzzSortPairs checks sortPairs against slices.SortFunc(p, byValue) on
// arbitrary columns over sortAlphabet, one value per input byte: both
// must put the same row at every position. Its seeds are checked in
// under testdata/fuzz/FuzzSortPairs.
func FuzzSortPairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := make([]pair, len(data))
		for k, b := range data {
			p[k] = pair{sortAlphabet[int(b)%len(sortAlphabet)], k}
		}
		ref := slices.Clone(p)
		slices.SortFunc(ref, byValue)
		sortPairs(p)
		for k := range p {
			if p[k].i != ref[k].i {
				t.Fatalf("position %d holds row %d, slices.SortFunc put row %d there", k, p[k].i, ref[k].i)
			}
		}
	})
}
