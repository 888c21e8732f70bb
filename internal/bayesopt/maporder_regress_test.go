package bayesopt

import (
	"fmt"
	"testing"

	"fedforecaster/internal/search"
)

// twoSpaces returns two single-parameter spaces so the optimizer's
// cross-space loss pool (the code the maporder fix sorted) has more
// than one map entry.
func twoSpaces() []search.Space {
	return []search.Space{
		{Algorithm: "Quad", Params: []search.Param{{Name: "x", Kind: search.Uniform, Lo: 0, Hi: 1}}},
		{Algorithm: "Line", Params: []search.Param{{Name: "y", Kind: search.Uniform, Lo: 0, Hi: 1}}},
	}
}

// TestNextDeterministicAcrossFreshOptimizers is the regression test
// for the maporder finding in the optimizer's loss collection: the
// per-algorithm observation map used to feed float statistics in map
// iteration order. Two fresh optimizers with the same seed and the
// same observation sequence must now propose byte-identical
// configurations at every step.
func TestNextDeterministicAcrossFreshOptimizers(t *testing.T) {
	run := func() string {
		o := New(twoSpaces(), 7)
		var trace string
		for iter := 0; iter < 20; iter++ {
			cfg := o.next()
			trace += fmt.Sprintf("%s %v\n", cfg.Algorithm, cfg.Values)
			// A loss that depends on the parameter keeps the GP honest.
			var loss float64
			for _, v := range cfg.Values {
				loss += (v - 0.25) * (v - 0.25)
			}
			o.observe(cfg, loss)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("optimizer trace diverged on run %d:\n%s\nwant:\n%s", i+2, got, first)
		}
	}
}
