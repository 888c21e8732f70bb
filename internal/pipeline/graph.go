package pipeline

import (
	"fmt"

	"fedforecaster/internal/search"
	"fedforecaster/internal/tsa"
)

// structure is the pipeline shape a configuration's structure
// categoricals (search.WithStructure) select from the template
// grammar: an optional pre-transform of the target channel — which
// rebuilds the lag embedding and rejoins the exogenous columns — and an
// optional fixed second regressor arm merged with the candidate by
// elementwise mean. The zero value is the paper's engineer→model chain.
type structure struct {
	pre  string // "" or a preTransforms key
	arm2 string // "" or a search.ArmConfig name
}

// preTransforms maps each pre-transform name to its series transform.
// Every transform is trailing (or front-padded), so each output index
// depends only on inputs at or before it: a rebuilt embedding keeps the
// no-look-ahead contract of the raw build.
var preTransforms = map[string]func([]float64) []float64{
	"smooth3": func(xs []float64) []float64 { return tsa.TrailingMovingAverage(xs, 3) },
	"smooth5": func(xs []float64) []float64 { return tsa.TrailingMovingAverage(xs, 5) },
	"diff1":   func(xs []float64) []float64 { return paddedDifference(xs, 1) },
}

// structureOf parses the structure categoricals of cfg. A configuration
// without structure keys, or with every choice "none", is the zero
// structure, so chain-only search never pays for branches.
func structureOf(cfg search.Config) (structure, error) {
	var st structure
	if pre := cfg.Cats[search.StructPre]; pre != "" && pre != search.StructNone {
		if _, ok := preTransforms[pre]; !ok {
			return structure{}, fmt.Errorf("pipeline: unknown pre-transform %q", pre)
		}
		st.pre = pre
	}
	if arm2 := cfg.Cats[search.StructArm2]; arm2 != "" && arm2 != search.StructNone {
		if _, ok := search.ArmConfig(arm2); !ok {
			return structure{}, fmt.Errorf("pipeline: unknown second arm %q", arm2)
		}
		st.arm2 = arm2
	}
	return st, nil
}

// paddedDifference is tsa.Difference front-padded with zeros so the
// output keeps the input's length and row alignment; out[i] is the
// order-d difference ending at xs[i] (zero while i < d).
func paddedDifference(xs []float64, d int) []float64 {
	diff := tsa.Difference(xs, d)
	out := make([]float64, len(xs))
	copy(out[len(xs)-len(diff):], diff)
	return out
}
