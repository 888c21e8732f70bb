package tree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortedMatchesSortSlice guards the bit-identity of the shared split
// scan across Go toolchains. The per-kind scans it replaced sorted row
// indices with sort.Slice and the less function x[a] < x[b]; the
// splitter sorts (value, row) pairs with slices.SortFunc. Both run Go's
// generated pdqsort, so on tie-heavy columns they must yield the same
// permutation, ties included. A toolchain whose two variants diverge
// fails here instead of silently changing every fitted tree.
func TestSortedMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3000)
		levels := 1 + rng.Intn(40)
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{float64(rng.Intn(levels))}
		}
		idx := identity(n)
		if trial%2 == 1 {
			idx = rng.Perm(n)[:1+rng.Intn(n)]
		}
		want := slices.Clone(idx)
		sort.Slice(want, func(a, b int) bool { return x[want[a]][0] < x[want[b]][0] })

		got := newSplitter(x, n, Options{}).sorted(idx, 0)
		for k, p := range got {
			if p.i != want[k] {
				t.Fatalf("trial %d (n=%d, %d levels, %d rows): position %d holds row %d, sort.Slice put row %d there",
					trial, n, levels, len(idx), k, p.i, want[k])
			}
		}
	}
}
