package features

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fedforecaster/internal/linmodel"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/model"
	"fedforecaster/internal/timeseries"
	"fedforecaster/internal/tsa"
)

func seasonalSeries(n, period int, noise float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 10 + 4*math.Sin(2*math.Pi*float64(i)/float64(period)) + noise*rng.NormFloat64()
	}
	s := timeseries.New("seasonal", vals, timeseries.RateDaily)
	s.Start = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	return s
}

func testEngineer(t *testing.T, clients []*timeseries.Series) *Engineer {
	t.Helper()
	agg, _ := metafeat.ComputeAggregated(clients)
	return NewEngineer(agg)
}

func TestSchemaDeterministicAcrossClients(t *testing.T) {
	clients := []*timeseries.Series{
		seasonalSeries(900, 24, 0.3, 1),
		seasonalSeries(1100, 24, 0.3, 2),
	}
	agg, _ := metafeat.ComputeAggregated(clients)
	e1 := NewEngineer(agg)
	e2 := NewEngineer(agg)
	n1, n2 := e1.FeatureNames(), e2.FeatureNames()
	if len(n1) != len(n2) {
		t.Fatal("schemas differ in length")
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("schema mismatch at %d: %s vs %s", i, n1[i], n2[i])
		}
	}
}

func TestBuildShapesAndAlignment(t *testing.T) {
	s := seasonalSeries(500, 12, 0.1, 3)
	e := testEngineer(t, []*timeseries.Series{s})
	ds, err := e.Build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500-e.MaxLag() {
		t.Errorf("rows = %d, want %d", ds.Len(), 500-e.MaxLag())
	}
	if ds.NumFeatures() != len(e.FeatureNames()) {
		t.Errorf("cols = %d, want %d", ds.NumFeatures(), len(e.FeatureNames()))
	}
	// lag_1 column must equal the previous target value.
	lagCol := -1
	for j, n := range ds.Names {
		if n == "lag_1" {
			lagCol = j
		}
	}
	if lagCol < 0 {
		t.Fatal("lag_1 missing from schema")
	}
	for i := 1; i < ds.Len(); i++ {
		if ds.X[i][lagCol] != ds.Y[i-1] {
			t.Fatalf("lag_1 misaligned at row %d", i)
		}
	}
}

func TestFeaturesPredictive(t *testing.T) {
	// A near-OLS Lasso on the engineered features must beat persistence on a
	// clean seasonal series.
	s := seasonalSeries(600, 24, 0.2, 4)
	e := testEngineer(t, []*timeseries.Series{s})
	ds, err := e.Build(s, 500)
	if err != nil {
		t.Fatal(err)
	}
	cut := 500 - e.MaxLag()
	train, valid := ds.Split(cut)
	reg := linmodel.NewLasso(0.001, linmodel.SelectionCyclic)
	if err := reg.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	mse := model.MSE(reg.Predict(valid.X), valid.Y)
	var persist float64
	for i := 1; i < valid.Len(); i++ {
		d := valid.Y[i] - valid.Y[i-1]
		persist += d * d
	}
	persist /= float64(valid.Len() - 1)
	if mse > persist {
		t.Errorf("engineered-feature MSE %v worse than persistence %v", mse, persist)
	}
}

func TestCalendarFeaturesUsedWhenAvailable(t *testing.T) {
	s := seasonalSeries(300, 7, 0.05, 5) // weekly pattern, daily rate
	e := testEngineer(t, []*timeseries.Series{s})
	ds, err := e.Build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	dowCol := -1
	for j, n := range ds.Names {
		if n == "time_dow" {
			dowCol = j
		}
	}
	if dowCol < 0 {
		t.Fatal("time_dow missing")
	}
	// With a real start date, dow must cycle over 0..6.
	seen := map[float64]bool{}
	for i := 0; i < 14 && i < ds.Len(); i++ {
		seen[ds.X[i][dowCol]] = true
	}
	if len(seen) != 7 {
		t.Errorf("day-of-week values = %v, want 7 distinct", seen)
	}
}

func TestBuildTooShort(t *testing.T) {
	s := seasonalSeries(3, 2, 0, 6)
	e := &Engineer{Lags: []int{5}, UseTrend: false, UseTime: false}
	if _, err := e.Build(s, 0); err == nil {
		t.Error("short series accepted")
	}
}

func TestTrendDoesNotLeakValidation(t *testing.T) {
	// Series with a level jump inside the validation region: the trend
	// fitted with trainLen must not anticipate the jump.
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = 1
		if i >= 350 {
			vals[i] = 100
		}
	}
	s := timeseries.New("jump", vals, timeseries.RateDaily)
	e := &Engineer{Lags: []int{1}, UseTrend: true, UseTime: false}
	ds, err := e.Build(s, 350)
	if err != nil {
		t.Fatal(err)
	}
	trendCol := -1
	for j, n := range ds.Names {
		if n == "trend" {
			trendCol = j
		}
	}
	// Trend at the last row extrapolates the flat pre-jump trend.
	last := ds.X[ds.Len()-1][trendCol]
	if last > 50 {
		t.Errorf("trend leaked the validation jump: %v", last)
	}
}

func TestSelectFeaturesThreshold(t *testing.T) {
	// Client importances concentrated on columns 0 and 2.
	perClient := [][]float64{
		{0.6, 0.02, 0.36, 0.02},
		{0.56, 0.02, 0.40, 0.02},
	}
	kept := SelectFeatures(perClient, 0.95)
	if len(kept) != 2 || kept[0] != 0 || kept[1] != 2 {
		t.Errorf("kept = %v, want [0 2]", kept)
	}
	// Threshold 1.0 keeps everything.
	all := SelectFeatures(perClient, 1.0)
	if len(all) != 4 {
		t.Errorf("full threshold kept %v", all)
	}
}

func TestSelectFeaturesDegenerate(t *testing.T) {
	if got := SelectFeatures(nil, 0.95); got != nil {
		t.Error("nil input should return nil")
	}
	kept := SelectFeatures([][]float64{{0, 0, 0}}, 0.95)
	if len(kept) != 3 {
		t.Errorf("all-zero importances kept %v, want all", kept)
	}
}

func TestClientImportancesIdentifyLag(t *testing.T) {
	// AR(1): lag_1 should dominate importances.
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 800)
	for i := 1; i < len(vals); i++ {
		vals[i] = 0.9*vals[i-1] + 0.3*rng.NormFloat64()
	}
	s := timeseries.New("ar", vals, timeseries.RateDaily)
	e := &Engineer{Lags: []int{1, 2}, UseTrend: false, UseTime: true}
	ds, err := e.Build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := ClientImportances(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for j := range imp {
		if imp[j] > imp[best] {
			best = j
		}
	}
	if ds.Names[best] != "lag_1" {
		t.Errorf("dominant feature = %s (importances %v)", ds.Names[best], imp)
	}
}

func TestKeepRestrictsColumns(t *testing.T) {
	s := seasonalSeries(300, 12, 0.1, 8)
	e := testEngineer(t, []*timeseries.Series{s})
	full, err := e.Build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Keep = []int{0, 1}
	restricted, err := e.Build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restricted.NumFeatures() != 2 {
		t.Fatalf("restricted cols = %d", restricted.NumFeatures())
	}
	for i := range restricted.X {
		if restricted.X[i][0] != full.X[i][0] || restricted.X[i][1] != full.X[i][1] {
			t.Fatal("Keep changed column contents")
		}
	}
}

func TestEndToEndSelectionPipeline(t *testing.T) {
	clients := []*timeseries.Series{
		seasonalSeries(700, 24, 0.3, 9),
		seasonalSeries(700, 24, 0.3, 10),
		seasonalSeries(700, 24, 0.3, 11),
	}
	agg, _ := metafeat.ComputeAggregated(clients)
	e := NewEngineer(agg)
	var perClient [][]float64
	for i, s := range clients {
		ds, err := e.Build(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		imp, err := ClientImportances(ds, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		perClient = append(perClient, imp)
	}
	kept := SelectFeatures(perClient, ImportanceThreshold)
	if len(kept) == 0 || len(kept) > len(e.FeatureNames()) {
		t.Fatalf("kept = %v", kept)
	}
	e.Keep = kept
	ds, err := e.Build(clients[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != len(kept) {
		t.Errorf("selected dataset has %d cols, want %d", ds.NumFeatures(), len(kept))
	}
}

func TestEngineerUsesGlobalSeasonalities(t *testing.T) {
	clients := []*timeseries.Series{
		seasonalSeries(900, 24, 0.2, 12),
		seasonalSeries(900, 24, 0.2, 13),
	}
	agg, _ := metafeat.ComputeAggregated(clients)
	e := NewEngineer(agg)
	found := false
	for _, sc := range e.Seasonal {
		if math.Abs(float64(sc.Period)-24) <= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("engineer seasonal components %v missing period 24", e.Seasonal)
	}
	_ = tsa.SeasonalComponent{}
}
