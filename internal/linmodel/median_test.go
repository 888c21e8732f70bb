package linmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// medianSorted is the sort-based median Huber used before the
// selection: a sorted copy, then the middle value or the mean of the
// two middle values.
func medianSorted(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	mid := len(tmp) / 2
	if len(tmp)%2 == 1 {
		return tmp[mid]
	}
	return (tmp[mid-1] + tmp[mid]) / 2
}

// tieValues draws n values from a pool of at most levels distinct
// values (plus the listed specials), so selection walks long tie runs.
func tieValues(rng *rand.Rand, n, levels int, specials []float64) []float64 {
	pool := make([]float64, levels)
	for i := range pool {
		pool[i] = math.Round(rng.NormFloat64()*4) / 4
	}
	pool = append(pool, specials...)
	out := make([]float64, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// TestMedianMatchesSort checks the selection median against the
// sort-based reference bit for bit on tie-heavy inputs: n = 0, 1, 2,
// odd and even n up to 3001, with ±Inf, signed zeros and NaN mixed in.
// It also checks that the input slice is left as it was.
func TestMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	inf := math.Inf(1)
	specialSets := [][]float64{
		nil,
		{inf},
		{-inf},
		{inf, -inf},
		{0},
		{math.Copysign(0, -1)},
		{0, math.Copysign(0, -1)},
		{math.NaN()},
		{math.NaN(), inf, -inf, math.Copysign(0, -1)},
	}
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 63, 64, 100, 101, 999, 1000, 3000, 3001}
	scratch := make([]float64, 3001)
	for _, n := range sizes {
		for _, levels := range []int{1, 2, 3, 7, 40, 1000} {
			for _, sp := range specialSets {
				for rep := 0; rep < 3; rep++ {
					xs := tieValues(rng, n, levels, sp)
					in := append([]float64(nil), xs...)
					want := medianSorted(xs)
					got := median(xs, scratch)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d levels=%d specials=%v: median %v (%#x), sort reference %v (%#x)",
							n, levels, sp, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					for i := range xs {
						if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
							t.Fatalf("n=%d: median reordered its input", n)
						}
					}
				}
			}
		}
	}
}

// TestMedianSortedRuns feeds selection the inputs that defeat a
// naive pivot: ascending, descending and organ-pipe runs.
func TestMedianSortedRuns(t *testing.T) {
	scratch := make([]float64, 2001)
	for _, n := range []int{2000, 2001} {
		asc := make([]float64, n)
		desc := make([]float64, n)
		pipe := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i)
			desc[i] = float64(n - i)
			pipe[i] = float64(min(i, n-i))
		}
		for _, xs := range [][]float64{asc, desc, pipe} {
			if got, want := median(xs, scratch), medianSorted(xs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: median %v, sort reference %v", n, got, want)
			}
		}
	}
}
