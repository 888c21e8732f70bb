package fedforecaster

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// demoClients builds a small federated dataset for API tests.
func demoClients(t *testing.T, seed int64) []*Series {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, 1500)
	vals[0] = 50
	for i := 1; i < len(vals); i++ {
		vals[i] = 50 + 0.8*(vals[i-1]-50) + 2*math.Sin(2*math.Pi*float64(i)/12) + rng.NormFloat64()
	}
	s := NewSeries("demo", vals, RateDaily)
	clients, err := s.PartitionClients(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	return clients
}

func TestPublicRun(t *testing.T) {
	clients := demoClients(t, 1)
	res, err := Run(clients, Options{Iterations: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestConfig.Algorithm == "" || math.IsNaN(res.TestMSE) {
		t.Fatalf("result = %+v", res)
	}
}

func TestPublicRandomSearch(t *testing.T) {
	clients := demoClients(t, 3)
	res, err := RunRandomSearch(clients, Options{Iterations: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestKnowledgeBaseLifecycle(t *testing.T) {
	kb, err := BuildKnowledgeBase(KBOptions{
		NumSynthetic: 6,
		NumRealLike:  0,
		SeriesScale:  0.15,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kb.Records) == 0 {
		t.Fatal("empty KB")
	}
	path := filepath.Join(t.TempDir(), "kb.json")
	if err := SaveKnowledgeBase(kb, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKnowledgeBase(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != len(kb.Records) {
		t.Fatal("KB round trip lost records")
	}
	meta, err := TrainMetaModel(loaded, "Random Forest", 6)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-started run through the public API.
	clients := demoClients(t, 7)
	res, err := Run(clients, Options{Iterations: 3, Meta: meta, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommended) == 0 {
		t.Error("meta-model produced no recommendations")
	}
}

func TestAlgorithmAndMetaModelLists(t *testing.T) {
	if len(Algorithms()) != 6 {
		t.Errorf("algorithms = %v", Algorithms())
	}
	if len(MetaModelNames()) != 8 {
		t.Errorf("meta models = %v", MetaModelNames())
	}
}

func TestOptionsDefaults(t *testing.T) {
	cfg, err := Options{}.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Iterations != 24 || cfg.TopK != 3 || !cfg.FeatureSelection {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Wire.String() != "v1" {
		t.Errorf("default wire = %v, want lossless v1", cfg.Wire)
	}
	custom, err := Options{Iterations: 5, TopK: 2, ValidFrac: 0.2, TestFrac: 0.1, DisableFeatureSelection: true, Wire: "v1+q8"}.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if custom.Iterations != 5 || custom.TopK != 2 || custom.FeatureSelection {
		t.Errorf("custom = %+v", custom)
	}
	if custom.Splits.ValidFrac != 0.2 || custom.Splits.TestFrac != 0.1 {
		t.Errorf("splits = %+v", custom.Splits)
	}
	if got := custom.Wire.String(); got != "v1+q8" {
		t.Errorf("custom wire = %q, want v1+q8", got)
	}
	for _, w := range []string{"v2", "gob", "v1+z"} {
		if _, err := (Options{Wire: w}).engineConfig(); err == nil {
			t.Errorf("invalid wire string %q accepted", w)
		}
	}
}

func TestPublicExogChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	total := 1200
	driver := make([]float64, total)
	vals := make([]float64, total)
	for i := 1; i < total; i++ {
		driver[i] = 0.9*driver[i-1] + rng.NormFloat64()
		vals[i] = 3*driver[i-1] + 0.1*rng.NormFloat64()
	}
	s := NewSeries("exog", vals, RateDaily)
	s.Exog = map[string][]float64{"driver": driver}
	clients, err := s.PartitionClients(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(clients, Options{Iterations: 3, Seed: 12, ExogChannels: []string{"driver"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.TestMSE) {
		t.Fatal("NaN MSE with exog channels")
	}
}

func TestPublicDeployForecast(t *testing.T) {
	clients := demoClients(t, 13)
	res, err := Run(clients, Options{Iterations: 3, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(clients, res, 15)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := dep.Models[0].Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 5 {
		t.Fatalf("forecast = %v", fc)
	}
	for _, v := range fc {
		if math.IsNaN(v) {
			t.Fatal("NaN forecast")
		}
	}
}

func TestBuildKnowledgeBaseWithRealLike(t *testing.T) {
	kb, err := BuildKnowledgeBase(KBOptions{
		NumSynthetic: 4,
		NumRealLike:  2,
		SeriesScale:  0.12,
		Seed:         20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kb.Records) < 4 {
		t.Fatalf("records = %d", len(kb.Records))
	}
	// Real-like records carry the _kb suffix and never reuse the
	// Table 3 evaluation seeds.
	foundRealLike := false
	for _, r := range kb.Records {
		if len(r.Dataset) > 3 && r.Dataset[len(r.Dataset)-3:] == "_kb" {
			foundRealLike = true
		}
		if r.BestAlgorithm == "" {
			t.Errorf("record %s missing label", r.Dataset)
		}
	}
	if !foundRealLike {
		t.Error("no real-like record built")
	}
}

func TestLoadCSVPublic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/series.csv"
	if err := os.WriteFile(path, []byte("timestamp,value\n2020-01-01,1\n2020-01-02,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Rate != RateDaily {
		t.Fatalf("loaded len=%d rate=%v", s.Len(), s.Rate)
	}
}
