package experiments

import (
	"math"
	"strings"
	"testing"

	"fedforecaster/internal/metalearn"
	"fedforecaster/internal/search"
	"fedforecaster/internal/synth"
)

func TestRunTable3SmokeTwoDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Table3Config{
		Scale:      0.02,
		Iterations: 3,
		Seeds:      1,
		Datasets:   []string{"nasdaq_Brazil_Saving_Deposits1", "Utilities Select Sector ETF"},
		SkipNBeats: true,
		Seed:       1,
	}
	rep, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if math.IsNaN(row.FedForecaster) || row.FedForecaster <= 0 {
			t.Errorf("%s FF MSE = %v", row.Dataset, row.FedForecaster)
		}
		if math.IsNaN(row.RandomSearch) || row.RandomSearch <= 0 {
			t.Errorf("%s RS MSE = %v", row.Dataset, row.RandomSearch)
		}
		if row.BestModel == "" {
			t.Errorf("%s has no best model", row.Dataset)
		}
	}
	out := rep.Format()
	if !strings.Contains(out, "Wilcoxon") || !strings.Contains(out, "Overall rank") {
		t.Error("Format missing statistics section")
	}
}

func TestRunTable3WithNBeats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Table3Config{
		Scale:      0.02,
		Iterations: 2,
		Seeds:      1,
		Datasets:   []string{"nasdaq_Brazil_Saving_Deposits1"},
		Seed:       2,
	}
	rep, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if math.IsNaN(row.NBeats) {
		t.Error("federated N-BEATS did not run")
	}
	if math.IsNaN(row.NBeatsCons) {
		t.Error("consolidated N-BEATS did not run")
	}
	// With all three methods present the rank vector is populated.
	var sum float64
	for _, r := range rep.AvgRank {
		sum += r
	}
	if math.Abs(sum-6) > 1e-9 { // ranks of 3 methods sum to 6
		t.Errorf("rank sum = %v", sum)
	}
}

func TestTable3StatsComputation(t *testing.T) {
	rep := &Table3Report{
		Rows: []Table3Row{
			{Dataset: "a", FedForecaster: 1, RandomSearch: 2, NBeats: 3},
			{Dataset: "b", FedForecaster: 1, RandomSearch: 3, NBeats: 2},
			{Dataset: "c", FedForecaster: 2, RandomSearch: 1, NBeats: 3},
		},
	}
	rep.computeStats()
	if rep.AvgRank[0] >= rep.AvgRank[2] {
		t.Errorf("FF rank %v not better than NB rank %v", rep.AvgRank[0], rep.AvgRank[2])
	}
	if rep.Wins() != 2 {
		t.Errorf("wins = %d, want 2", rep.Wins())
	}
}

func TestRunTable4OnSyntheticKB(t *testing.T) {
	// Build a KB directly from labeled meta-feature vectors: fast and
	// deterministic enough to compare all 8 classifiers.
	kb := separableKB(140, 3)
	rep, err := RunTable4(kb, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 8 {
		t.Fatalf("results = %d, want 8", len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.MRR3 < 0 || res.MRR3 > 1 || res.F1 < 0 || res.F1 > 1 {
			t.Errorf("%s out-of-range metrics: %+v", res.Model, res)
		}
	}
	// On a separable KB the tree ensembles should do very well.
	if best := rep.Best(); best.MRR3 < 0.8 {
		t.Errorf("best MRR@3 = %v", best.MRR3)
	}
	if !strings.Contains(rep.Format(), "Random Forest") {
		t.Error("Format missing classifiers")
	}
}

func TestRunClientSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunClientSweep(0.35, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) == 0 {
		t.Fatal("no sweep points")
	}
	for _, p := range rep.Points {
		if math.IsNaN(p.FedForecaster) || math.IsNaN(p.RandomSearch) {
			t.Errorf("NaN at clients=%v", p.Value)
		}
	}
	if !strings.Contains(rep.Format(), "clients") {
		t.Error("sweep format wrong")
	}
}

func TestRunBudgetSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunBudgetSweep(0.2, []int{1, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d", len(rep.Points))
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"warmstart", "surrogate", "featuresel", "globalmeta"} {
		res, err := RunAblation(name, 0.2, 2, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.IsNaN(res.FullMSE) || math.IsNaN(res.AblatedMSE) {
			t.Errorf("%s produced NaN", name)
		}
	}
	if _, err := RunAblation("ghost", 0.2, 2, 8); err == nil {
		t.Error("unknown ablation accepted")
	}
}

// separableKB fabricates a KB whose best algorithm is predictable from
// the features.
func separableKB(n int, seed int64) *metalearn.KnowledgeBase {
	kb := &metalearn.KnowledgeBase{FeatureNames: []string{"f0", "f1"}}
	algos := []string{search.AlgoLasso, search.AlgoXGB, search.AlgoHuber}
	for i := 0; i < n; i++ {
		c := i % 3
		vec := []float64{float64(c)*3 + float64((seed+int64(i))%5)*0.05, float64(i%7) * 0.1}
		losses := map[string]float64{}
		for j, a := range algos {
			losses[a] = 1 + math.Abs(float64(j-c))
		}
		kb.Records = append(kb.Records, metalearn.Record{
			Dataset: "sep", MetaFeatures: vec,
			AlgoLosses: losses, BestAlgorithm: algos[c],
		})
	}
	return kb
}

var _ = synth.EvalDatasets

func TestTable3ConfigNormalization(t *testing.T) {
	c := Table3Config{}.normalized()
	if c.Scale != 0.05 || c.Iterations != 8 || c.Seeds != 3 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Table3Config{Scale: 2, Iterations: -1, Seeds: 0}.normalized()
	if c2.Scale != 0.05 || c2.Iterations != 8 || c2.Seeds != 3 {
		t.Errorf("invalid inputs not normalized: %+v", c2)
	}
}

func TestTable3StatsWithoutNBeats(t *testing.T) {
	rep := &Table3Report{
		Rows: []Table3Row{
			{Dataset: "a", FedForecaster: 1, RandomSearch: 2, NBeats: math.NaN()},
			{Dataset: "b", FedForecaster: 2, RandomSearch: 1, NBeats: math.NaN()},
		},
	}
	rep.computeStats()
	if !math.IsNaN(rep.PvsNBeats) {
		t.Errorf("PvsNBeats = %v, want NaN with no N-Beats data", rep.PvsNBeats)
	}
	if !math.IsNaN(rep.AvgRank[0]) {
		t.Errorf("AvgRank = %v, want NaN with no complete rows", rep.AvgRank)
	}
	out := rep.Format()
	if !strings.Contains(out, "p=-") {
		t.Errorf("missing-stat rendering wrong:\n%s", out)
	}
}

func TestNaFormatters(t *testing.T) {
	if naDash(math.NaN()) != "-" || naRank(math.NaN()) != "-" || naP(math.NaN()) != "-" {
		t.Error("NaN not rendered as dash")
	}
	if naDash(1.5) == "-" || naRank(1.5) == "-" || naP(0.05) == "-" {
		t.Error("finite values rendered as dash")
	}
}

func TestRunRuntimeReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunRuntimeReport(0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KBRecord <= 0 || rep.MetaFeaturesAvg <= 0 {
		t.Errorf("non-positive durations: %+v", rep)
	}
	// Meta-feature extraction must be orders of magnitude cheaper than
	// record construction (the paper's qualitative claim).
	if rep.MetaFeaturesAvg*10 > rep.KBRecord {
		t.Errorf("meta-features (%v) not ≪ KB record (%v)", rep.MetaFeaturesAvg, rep.KBRecord)
	}
	if !strings.Contains(rep.Format(), "114.53") {
		t.Error("format missing paper reference")
	}
}
