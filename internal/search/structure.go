package search

import "strings"

// Pipeline-structure dimensions: categorical parameters with the "g:"
// prefix encode the shape of the evaluation pipeline rather than a
// regressor hyper-parameter. Instantiate ignores them (it only reads
// the hyper-parameters its algorithm knows). This package owns the
// choice names; internal/pipeline owns what each name means, parsing
// the pair into a pre-transform and a second arm, and a test there
// checks that every name listed here parses. Keeping them ordinary
// categoricals means the Bayesian optimizer proposes structure
// exactly the way it proposes any other choice — no new encoding, no
// new protocol.
const (
	// StructPrefix marks a parameter name as a structure dimension.
	StructPrefix = "g:"
	// StructPre selects the series pre-transform ahead of the lag
	// embedding: "none", "smooth3", "smooth5" (trailing moving
	// averages), or "diff1" (first difference).
	StructPre = "g:pre"
	// StructArm2 selects an optional fixed second regressor arm merged
	// with the candidate by elementwise mean: "none", "linear" (Lasso
	// at the centre of its space), or "tree" (XGB at the centre).
	StructArm2 = "g:arm2"
	// StructNone is the degenerate choice of every structure dimension:
	// the paper's fixed engineer→model chain.
	StructNone = "none"
)

// StructPreChoices lists the bounded pre-transform grammar.
func StructPreChoices() []string { return []string{StructNone, "smooth3", "smooth5", "diff1"} }

// StructArm2Choices lists the bounded second-arm grammar.
func StructArm2Choices() []string { return []string{StructNone, "linear", "tree"} }

// IsStructureParam reports whether a parameter name encodes pipeline
// structure rather than a regressor hyper-parameter.
func IsStructureParam(name string) bool { return strings.HasPrefix(name, StructPrefix) }

// WithStructure widens every space with the structure categoricals so
// the optimizer proposes pipeline shape alongside hyper-parameters.
// The input spaces are not mutated.
func WithStructure(spaces []Space) []Space {
	out := make([]Space, len(spaces))
	for i, sp := range spaces {
		ps := make([]Param, 0, len(sp.Params)+2) //lint:allow hotalloc runs once per engine run when Phase II widens the spaces, not per candidate
		ps = append(ps, sp.Params...)
		ps = append(ps,
			Param{Name: StructPre, Kind: Categorical, Choices: StructPreChoices()},
			Param{Name: StructArm2, Kind: Categorical, Choices: StructArm2Choices()},
		)
		out[i] = Space{Algorithm: sp.Algorithm, Params: ps}
	}
	return out
}

// armConfigs holds the fixed centre-of-space configurations of the
// secondary regressor arms, computed once at init. Arms are
// deliberately not tuned: they contribute an independent inductive
// bias (a plain linear model, a small tree ensemble) while the BO
// budget stays on the primary arm's hyper-parameters.
var armConfigs = map[string]Config{
	"linear": centreConfig(AlgoLasso),
	"tree":   centreConfig(AlgoXGB),
}

func centreConfig(algo string) Config {
	sp, _ := SpaceFor(DefaultSpaces(), algo)
	u := make([]float64, sp.Dim())
	for i := range u {
		u[i] = 0.5
	}
	return sp.Decode(u)
}

// ArmConfig returns the fixed configuration of a named secondary arm
// ("linear", "tree"). The result is shared: callers must treat it as
// read-only.
func ArmConfig(arm string) (Config, bool) {
	c, ok := armConfigs[arm]
	return c, ok
}
