package metalearn

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/synth"
	"fedforecaster/internal/timeseries"
)

// syntheticKB fabricates a knowledge base whose label is perfectly
// predictable from the first meta-feature, for fast classifier tests.
func syntheticKB(n int, seed int64) *KnowledgeBase {
	rng := rand.New(rand.NewSource(seed))
	kb := &KnowledgeBase{FeatureNames: []string{"f0", "f1", "f2"}}
	algos := []string{search.AlgoLasso, search.AlgoXGB, search.AlgoHuber}
	for i := 0; i < n; i++ {
		c := i % 3
		vec := []float64{
			float64(c)*2 + 0.3*rng.NormFloat64(),
			rng.NormFloat64(),
			rng.NormFloat64(),
		}
		losses := map[string]float64{}
		for j, a := range algos {
			losses[a] = 1 + math.Abs(float64(j-c)) + 0.01*rng.Float64()
		}
		kb.Records = append(kb.Records, Record{
			Dataset:       "synthetic",
			MetaFeatures:  vec,
			AlgoLosses:    losses,
			BestAlgorithm: algos[c],
		})
	}
	return kb
}

func TestKBSaveLoadRoundTrip(t *testing.T) {
	kb := syntheticKB(10, 1)
	path := filepath.Join(t.TempDir(), "kb.json")
	if err := kb.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 10 || len(got.FeatureNames) != 3 {
		t.Fatalf("round trip: %d records, %d names", len(got.Records), len(got.FeatureNames))
	}
	if got.Records[0].BestAlgorithm != kb.Records[0].BestAlgorithm {
		t.Error("labels lost in round trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/kb.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRecordRanking(t *testing.T) {
	r := Record{AlgoLosses: map[string]float64{"a": 3, "b": 1, "c": 2}}
	rank := r.Ranking()
	want := []string{"b", "c", "a"}
	for i := range want {
		if rank[i] != want[i] {
			t.Fatalf("ranking = %v, want %v", rank, want)
		}
	}
}

func TestTrainAndRecommend(t *testing.T) {
	kb := syntheticKB(120, 2)
	clf, err := NewClassifier("Random Forest", 3)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := TrainMetaModel(kb, clf)
	if err != nil {
		t.Fatal(err)
	}
	// Feature vector from class 1 region: XGB should rank first.
	recs := mm.RecommendTopK([]float64{2, 0, 0}, 3)
	if len(recs) != 3 {
		t.Fatalf("top-3 = %v", recs)
	}
	if recs[0] != search.AlgoXGB {
		t.Errorf("top recommendation = %s, want XGB", recs[0])
	}
}

func TestTrainMetaModelEmptyKB(t *testing.T) {
	clf, _ := NewClassifier("Random Forest", 0)
	if _, err := TrainMetaModel(&KnowledgeBase{}, clf); err == nil {
		t.Error("empty KB accepted")
	}
}

func TestNewClassifierAllNames(t *testing.T) {
	kb := syntheticKB(90, 4)
	x := make([][]float64, len(kb.Records))
	y := make([]string, len(kb.Records))
	for i, r := range kb.Records {
		x[i] = r.MetaFeatures
		y[i] = r.BestAlgorithm
	}
	for _, name := range MetaModelNames() {
		clf, err := NewClassifier(name, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := clf.Fit(x, y); err != nil {
			t.Fatalf("%s Fit: %v", name, err)
		}
		pred := clf.PredictProba(x[:3])
		if len(pred) != 3 {
			t.Fatalf("%s predictions = %v", name, pred)
		}
		probas := clf.PredictProba(x[:1])
		var s float64
		for _, p := range probas[0] {
			s += p
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("%s probabilities sum to %v", name, s)
		}
	}
	if _, err := NewClassifier("Ghost", 0); err == nil {
		t.Error("unknown classifier accepted")
	}
}

func TestEvaluateMetaModelSeparableKB(t *testing.T) {
	kb := syntheticKB(150, 6)
	res, err := EvaluateMetaModel(kb, "Random Forest", 0.8, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A perfectly separable KB should give near-perfect scores.
	if res.MRR3 < 0.9 {
		t.Errorf("MRR@3 = %v on separable KB", res.MRR3)
	}
	if res.F1 < 0.85 {
		t.Errorf("F1 = %v on separable KB", res.F1)
	}
}

func TestEvaluateMetaModelTooSmall(t *testing.T) {
	if _, err := EvaluateMetaModel(syntheticKB(3, 8), "Random Forest", 0.8, 3, 9); err == nil {
		t.Error("tiny KB accepted")
	}
}

func TestBuildRecordOnRealPipeline(t *testing.T) {
	// A real (small) KB record: strongly autocorrelated series split
	// into 3 clients, tiny grid.
	rng := rand.New(rand.NewSource(10))
	vals := make([]float64, 1200)
	vals[0] = 10
	for i := 1; i < len(vals); i++ {
		vals[i] = 10 + 0.85*(vals[i-1]-10) + 0.4*rng.NormFloat64()
	}
	s := timeseries.New("kbtest", vals, timeseries.RateDaily)
	clients, err := s.PartitionClients(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the grid tiny for test speed: Lasso + Huber only.
	var spaces []search.Space
	for _, sp := range search.DefaultSpaces() {
		if sp.Algorithm == search.AlgoLasso || sp.Algorithm == search.AlgoHuber {
			spaces = append(spaces, sp)
		}
	}
	rec, err := BuildRecord("kbtest", clients, spaces, 2, pipeline.Splits{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.MetaFeatures) == 0 {
		t.Error("no meta-features recorded")
	}
	if len(rec.AlgoLosses) != 2 {
		t.Errorf("algo losses = %v", rec.AlgoLosses)
	}
	if rec.BestAlgorithm != search.AlgoLasso && rec.BestAlgorithm != search.AlgoHuber {
		t.Errorf("best = %s", rec.BestAlgorithm)
	}
	if rec.AlgoLosses[rec.BestAlgorithm] > rec.AlgoLosses[otherOf(rec.BestAlgorithm)] {
		t.Error("best algorithm does not have the lowest loss")
	}
}

func otherOf(a string) string {
	if a == search.AlgoLasso {
		return search.AlgoHuber
	}
	return search.AlgoLasso
}

func TestBuildRecordFromSynthSpec(t *testing.T) {
	// End-to-end with the synthetic generator (as the real KB build
	// does), scaled down.
	sp := synth.Spec{
		Name: "kbsynth", N: 1600, Rate: timeseries.RateDaily, Level: 12,
		Seasons: []synth.SeasonComponent{{Period: 12, Amplitude: 2}},
		SNR:     8, Seed: 12,
	}
	s := sp.Generate()
	clients, err := s.PartitionClients(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	spaces := []search.Space{search.DefaultSpaces()[0]} // Lasso only
	rec, err := BuildRecord(sp.Name, clients, spaces, 2, pipeline.Splits{}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BestAlgorithm != search.AlgoLasso {
		t.Errorf("best = %s", rec.BestAlgorithm)
	}
}

func TestSingleClassKB(t *testing.T) {
	// Every KB record labels the same algorithm: training must work and
	// the recommendation is that single algorithm.
	kb := &KnowledgeBase{FeatureNames: []string{"f"}}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 20; i++ {
		kb.Records = append(kb.Records, Record{
			Dataset:       "mono",
			MetaFeatures:  []float64{rng.NormFloat64()},
			AlgoLosses:    map[string]float64{search.AlgoLasso: 1},
			BestAlgorithm: search.AlgoLasso,
		})
	}
	for _, name := range []string{"Random Forest", "Logistic Regression", "XGBClassifier", "MLPClassifier"} {
		clf, err := NewClassifier(name, 31)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := TrainMetaModel(kb, clf)
		if err != nil {
			t.Fatalf("%s on single-class KB: %v", name, err)
		}
		recs := mm.RecommendTopK([]float64{0}, 3)
		if len(recs) != 1 || recs[0] != search.AlgoLasso {
			t.Fatalf("%s recommendations = %v", name, recs)
		}
	}
}

func TestRecommendTopKClamps(t *testing.T) {
	kb := syntheticKB(60, 32)
	clf, _ := NewClassifier("Random Forest", 33)
	mm, err := TrainMetaModel(kb, clf)
	if err != nil {
		t.Fatal(err)
	}
	// k larger than the number of classes clamps to the class count.
	recs := mm.RecommendTopK(kb.Records[0].MetaFeatures, 50)
	if len(recs) != 3 {
		t.Fatalf("clamped recommendations = %v", recs)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r] {
			t.Fatalf("duplicate recommendation %v", recs)
		}
		seen[r] = true
	}
}
