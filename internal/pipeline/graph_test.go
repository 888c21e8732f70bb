package pipeline

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// TestTemplateGraphShapes: search owns the structure choice names and
// pipeline owns what they mean, so every pair search can propose must
// parse to its template ("none" to an empty field) and a name outside
// the grammar must be rejected.
func TestTemplateGraphShapes(t *testing.T) {
	for _, pre := range search.StructPreChoices() {
		for _, arm2 := range search.StructArm2Choices() {
			cfg := lassoCfg()
			cfg.Cats[search.StructPre] = pre
			cfg.Cats[search.StructArm2] = arm2
			st, err := structureOf(cfg)
			if err != nil {
				t.Errorf("pre=%s arm2=%s: %v", pre, arm2, err)
				continue
			}
			want := structure{pre: pre, arm2: arm2}
			if pre == search.StructNone {
				want.pre = ""
			}
			if arm2 == search.StructNone {
				want.arm2 = ""
			}
			if st != want {
				t.Errorf("pre=%s arm2=%s parsed as %+v, want %+v", pre, arm2, st, want)
			}
		}
	}
	for _, bad := range [][2]string{{search.StructPre, "smooth9"}, {search.StructArm2, "svm"}} {
		cfg := lassoCfg()
		cfg.Cats[bad[0]] = bad[1]
		if _, err := structureOf(cfg); err == nil {
			t.Errorf("%s=%q accepted", bad[0], bad[1])
		}
	}
}

// TestStructureOfDegenerate: a configuration without structure keys and
// an explicit none/none both parse to the zero structure, the chain.
func TestStructureOfDegenerate(t *testing.T) {
	cfg := lassoCfg()
	if st, err := structureOf(cfg); err != nil || st != (structure{}) {
		t.Errorf("config without structure keys parsed as %+v (err %v), want the chain", st, err)
	}
	cfg.Cats[search.StructPre] = search.StructNone
	cfg.Cats[search.StructArm2] = search.StructNone
	if st, err := structureOf(cfg); err != nil || st != (structure{}) {
		t.Errorf("explicit none/none parsed as %+v (err %v), want the chain", st, err)
	}
}

// TestDegenerateGraphBitIdentical: the executor's chain (the zero
// structure) must reproduce the legacy chain arithmetic bit-for-bit — same matrices,
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
				bestSpec = pre + "/" + arm2
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
	f := gp.folds[0]
	pd, err := f.data(gp, "smooth3")
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
	pd2, err := f.data(gp, "smooth3")
	if err != nil || pd2 != pd {
		t.Errorf("memo miss on second resolve (err %v)", err)
	}
}

// TestBranchedLossDeterministic: a fully branched template (a
// smoothing pre-transform and a second arm fitted concurrently with the
// candidate) evaluates to the same bits across repeated calls.
func TestBranchedLossDeterministic(t *testing.T) {
	clients := multivariateClients(t, 1200, 2, 6)
	s := clients[0]
	eng := testEngineer(clients)
	eng.ExogNames = []string{"drv"}
	gp, err := BuildGraphPhase(s, eng, Splits{ValidFrac: 0.15, TestFrac: 0.15}, "valid")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lassoCfg()
	cfg.Cats[search.StructPre] = "smooth5"
	cfg.Cats[search.StructArm2] = "tree"
	l1, n1, err := gp.Loss(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	l2, n2, err := gp.Loss(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(l1) != math.Float64bits(l2) || n1 != n2 {
		t.Errorf("branched loss not deterministic: %v/%d vs %v/%d", l1, n1, l2, n2)
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
