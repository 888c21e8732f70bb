package pipeline

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

func TestTemplateGraphShapes(t *testing.T) {
	cases := []struct {
		pre, arm2 string
		nodes     int
		spec      string
	}{
		{"none", "none", 3, "cand(embed(src))"},
		{"smooth3", "none", 5, "cand(exog(embed(smooth3(src))))"},
		{"diff1", "none", 5, "cand(exog(embed(diff1(src))))"},
		{"none", "linear", 5, "mean(cand(embed(src)),linear(embed(src)))"},
		{"smooth5", "tree", 7, "mean(cand(exog(embed(smooth5(src)))),tree(exog(embed(smooth5(src)))))"},
	}
	for _, c := range cases {
		g, err := TemplateGraph(c.pre, c.arm2)
		if err != nil {
			t.Fatalf("TemplateGraph(%q,%q): %v", c.pre, c.arm2, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("TemplateGraph(%q,%q) invalid: %v", c.pre, c.arm2, err)
		}
		if len(g.Nodes) != c.nodes {
			t.Errorf("TemplateGraph(%q,%q): %d nodes, want %d", c.pre, c.arm2, len(g.Nodes), c.nodes)
		}
		if got := g.Spec(); got != c.spec {
			t.Errorf("TemplateGraph(%q,%q).Spec() = %q, want %q", c.pre, c.arm2, got, c.spec)
		}
	}
	if _, err := TemplateGraph("smooth9", "none"); err == nil {
		t.Error("unknown pre-transform accepted")
	}
	if _, err := TemplateGraph("none", "svm"); err == nil {
		t.Error("unknown arm accepted")
	}
}

func TestStructureOfDegenerate(t *testing.T) {
	cfg := lassoCfg()
	g, err := StructureOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g != defaultGraph {
		t.Error("config without structure keys should map to the shared degenerate chain")
	}
	cfg.Cats[search.StructPre] = search.StructNone
	cfg.Cats[search.StructArm2] = search.StructNone
	if g2, _ := StructureOf(cfg); g2 != defaultGraph {
		t.Error("explicit none/none should map to the shared degenerate chain")
	}
}

func TestGraphValidateRejects(t *testing.T) {
	bad := []Graph{
		{}, // empty
		{Nodes: []Node{{ID: "a", Kind: NodeSource}, {ID: "a", Kind: NodeSource}}},                                                                                                  // dup IDs
		{Nodes: []Node{{ID: "r", Kind: NodeRegress, Inputs: []string{"ghost"}}}},                                                                                                   // unresolved input
		{Nodes: []Node{{ID: "s", Kind: NodeSource}, {ID: "r", Kind: NodeRegress, Inputs: []string{"s"}}}},                                                                          // regress over raw series
		{Nodes: []Node{{ID: "s", Kind: NodeSource}, {ID: "m", Kind: NodeSmooth, Inputs: []string{"s"}}}},                                                                           // smooth window < 1 (and series sink)
		{Nodes: []Node{{ID: "a", Kind: NodeSmooth, Window: 3, Inputs: []string{"b"}}, {ID: "b", Kind: NodeSmooth, Window: 3, Inputs: []string{"a"}}, {ID: "s", Kind: NodeSource}}}, // cycle
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
}

// TestDegenerateGraphBitIdentical: the refactored graph executor must
// reproduce the legacy chain arithmetic bit-for-bit — same matrices,
// same losses, same errors — for both phases and several seeds.
func TestDegenerateGraphBitIdentical(t *testing.T) {
	s := arSeries(900, 11)
	eng := testEngineer([]*timeseries.Series{s})
	splits := Splits{ValidFrac: 0.15, TestFrac: 0.15}
	cfgs := []search.Config{
		lassoCfg(),
		{Algorithm: search.AlgoXGB, Values: map[string]float64{
			"n_estimators": 8, "max_depth": 3, "learning_rate": 0.2, "reg_lambda": 1, "subsample": 0.9,
		}, Cats: map[string]string{}},
	}
	for _, phase := range []string{"valid", "test"} {
		pd, err := BuildPhaseData(s, eng, splits, phase)
		if err != nil {
			t.Fatalf("%s: BuildPhaseData: %v", phase, err)
		}
		gp, err := BuildGraphPhase(s, eng, splits, phase)
		if err != nil {
			t.Fatalf("%s: BuildGraphPhase: %v", phase, err)
		}
		for _, cfg := range cfgs {
			for seed := int64(1); seed <= 3; seed++ {
				wantLoss, wantRows, err1 := pd.Loss(cfg, seed)
				gotLoss, gotRows, err2 := gp.Loss(cfg, seed)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s %s seed %d: errs %v / %v", phase, cfg.Algorithm, seed, err1, err2)
				}
				if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) || wantRows != gotRows {
					t.Errorf("%s %s seed %d: graph loss %v/%d != chain loss %v/%d",
						phase, cfg.Algorithm, seed, gotLoss, gotRows, wantLoss, wantRows)
				}
			}
		}
	}
}

// multivariateClients builds the synthetic structure-search benchmark:
// a smooth multi-sine latent signal buried in heavy observation noise,
// plus an exogenous channel tracking the clean latent. Raw lag
// features inherit the full noise; a trailing smoothing pre-transform
// recovers the latent, so a branched graph has real signal to win on.
func multivariateClients(t testing.TB, n, clients int, seed int64) []*timeseries.Series {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	exog := make([]float64, n)
	for i := 0; i < n; i++ {
		latent := 10 +
			4*math.Sin(2*math.Pi*float64(i)/48) +
			2*math.Sin(2*math.Pi*float64(i)/120)
		vals[i] = latent + 2.0*rng.NormFloat64()
		exog[i] = latent + 0.2*rng.NormFloat64()
	}
	s := timeseries.New("mv", vals, timeseries.RateHourly)
	s.Exog = map[string][]float64{"drv": exog}
	parts, err := s.PartitionClients(clients, 50)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// TestBranchedGraphBeatsChain enumerates the bounded template grammar
// (the structure-search space) over a fixed hyper-parameter setting on
// the synthetic multivariate dataset and checks that (a) some branched
// graph beats or matches the best fixed chain, and (b) the grammar's
// winner is itself branched — i.e. structure search has something to
// find beyond the paper's chain.
func TestBranchedGraphBeatsChain(t *testing.T) {
	clients := multivariateClients(t, 1500, 3, 42)
	eng := testEngineer(clients)
	eng.ExogNames = []string{"drv"}
	splits := Splits{ValidFrac: 0.15, TestFrac: 0.15}

	bestChain := math.Inf(1)
	bestBranched := math.Inf(1)
	bestSpec := ""
	for _, pre := range search.StructPreChoices() {
		for _, arm2 := range search.StructArm2Choices() {
			cfg := lassoCfg()
			cfg.Cats[search.StructPre] = pre
			cfg.Cats[search.StructArm2] = arm2
			loss, err := GlobalLoss(clients, eng, cfg, splits, "valid", 9)
			if err != nil {
				t.Fatalf("pre=%s arm2=%s: %v", pre, arm2, err)
			}
			branched := pre != search.StructNone || arm2 != search.StructNone
			if branched && loss < bestBranched {
				bestBranched = loss
				g, _ := TemplateGraph(pre, arm2)
				bestSpec = g.Spec()
			}
			if !branched && loss < bestChain {
				bestChain = loss
			}
		}
	}
	t.Logf("best chain %.4f, best branched %.4f (%s)", bestChain, bestBranched, bestSpec)
	if !(bestBranched <= bestChain) {
		t.Errorf("best branched graph %.4f worse than best chain %.4f", bestBranched, bestChain)
	}
}

// TestTransformedBranchSchema: a transformed branch must present the
// same column names as the degenerate schema (exog rejoined, frozen
// selection reapplied) and keep the raw targets.
func TestTransformedBranchSchema(t *testing.T) {
	clients := multivariateClients(t, 1200, 2, 5)
	s := clients[0]
	eng := testEngineer(clients)
	eng.ExogNames = []string{"drv"}
	eng.Keep = []int{0, 1, 2, len(eng.FeatureNames()) - 1} // a few lags + the exog column
	splits := Splits{ValidFrac: 0.15, TestFrac: 0.15}

	gp, err := BuildGraphPhase(s, eng, splits, "valid")
	if err != nil {
		t.Fatal(err)
	}
	g, err := TemplateGraph("smooth3", "none")
	if err != nil {
		t.Fatal(err)
	}
	f := gp.folds[0]
	dataIdx := g.index("exog")
	pd, err := f.nodeData(gp, g, dataIdx)
	if err != nil {
		t.Fatal(err)
	}
	base := f.base
	if strings.Join(pd.Train.Names, ",") != strings.Join(base.Train.Names, ",") {
		t.Errorf("branch columns %v != base columns %v", pd.Train.Names, base.Train.Names)
	}
	if pd.Train.Len() != base.Train.Len() || pd.Score.Len() != base.Score.Len() {
		t.Errorf("branch rows %d/%d != base rows %d/%d",
			pd.Train.Len(), pd.Score.Len(), base.Train.Len(), base.Score.Len())
	}
	for i, y := range pd.Score.Y {
		if y != base.Score.Y[i] {
			t.Fatalf("branch target %d = %v, want raw %v", i, y, base.Score.Y[i])
		}
	}
	// The cache memoizes: a second resolve returns the same object.
	pd2, err := f.nodeData(gp, g, dataIdx)
	if err != nil || pd2 != pd {
		t.Errorf("node cache miss on second resolve (err %v)", err)
	}
}

// TestGraphLossHandBuilt: the executor accepts a hand-built branched
// graph outside the template grammar and evaluates it deterministically
// across repeated calls.
func TestGraphLossHandBuilt(t *testing.T) {
	clients := multivariateClients(t, 1200, 2, 6)
	s := clients[0]
	eng := testEngineer(clients)
	eng.ExogNames = []string{"drv"}
	gp, err := BuildGraphPhase(s, eng, Splits{ValidFrac: 0.15, TestFrac: 0.15}, "valid")
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{Nodes: []Node{
		{ID: "src", Kind: NodeSource},
		{ID: "sm", Kind: NodeSmooth, Window: 4, Inputs: []string{"src"}},
		{ID: "d", Kind: NodeDiff, Order: 1, Inputs: []string{"sm"}},
		{ID: "embed", Kind: NodeLagEmbed, Inputs: []string{"d"}},
		{ID: "exog", Kind: NodeExogJoin, Inputs: []string{"embed"}},
		{ID: "arm0", Kind: NodeRegress, Inputs: []string{"exog"}},
		{ID: "arm1", Kind: NodeRegress, Arm: 1, Algo: "tree", Inputs: []string{"exog"}},
		{ID: "out", Kind: NodeMerge, Inputs: []string{"arm0", "arm1"}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	l1, n1, err := gp.graphLoss(g, lassoCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	l2, n2, err := gp.graphLoss(g, lassoCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(l1) != math.Float64bits(l2) || n1 != n2 {
		t.Errorf("hand-built graph loss not deterministic: %v/%d vs %v/%d", l1, n1, l2, n2)
	}
	if !(l1 > 0) || n1 == 0 {
		t.Errorf("suspicious loss %v over %d rows", l1, n1)
	}
}

// TestGlobalLossJoinsClientErrors: when every client fails, the error
// must name each failing client, not just the last one.
func TestGlobalLossJoinsClientErrors(t *testing.T) {
	tiny := []*timeseries.Series{arSeries(8, 1), arSeries(8, 2)}
	eng := testEngineer(tiny)
	_, err := GlobalLoss(tiny, eng, lassoCfg(), Splits{ValidFrac: 0.15, TestFrac: 0.15}, "valid", 1)
	if err == nil {
		t.Fatal("expected an error when every client is too small")
	}
	msg := err.Error()
	if !strings.Contains(msg, "client 0") || !strings.Contains(msg, "client 1") {
		t.Errorf("joined error %q does not name both clients", msg)
	}
}
