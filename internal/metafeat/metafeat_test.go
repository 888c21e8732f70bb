package metafeat

import (
	"math"
	"math/rand"
	"testing"

	"fedforecaster/internal/timeseries"
)

func seasonalSeries(n, period int, noise float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 10 + 4*math.Sin(2*math.Pi*float64(i)/float64(period)) + noise*rng.NormFloat64()
	}
	return timeseries.New("seasonal", vals, timeseries.RateDaily)
}

func walkSeries(n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := 1; i < n; i++ {
		vals[i] = vals[i-1] + rng.NormFloat64()
	}
	return timeseries.New("walk", vals, timeseries.RateDaily)
}

func TestExtractClientBasics(t *testing.T) {
	s := seasonalSeries(1024, 24, 0.2, 1)
	cf := ExtractClient(s, 0, 20)
	if cf.NumInstances != 1024 {
		t.Errorf("NumInstances = %v", cf.NumInstances)
	}
	if cf.MissingPct != 0 {
		t.Errorf("MissingPct = %v", cf.MissingPct)
	}
	if cf.Stationary != 1 {
		t.Error("bounded seasonal series should be stationary")
	}
	if cf.SeasonalCount < 1 {
		t.Error("seasonality not detected")
	}
	found := false
	for _, sc := range cf.Seasonal {
		if math.Abs(float64(sc.Period)-24) <= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("period 24 not among %v", cf.Seasonal)
	}
	var histSum float64
	for _, h := range cf.Histogram {
		histSum += h
	}
	if math.Abs(histSum-1) > 1e-9 {
		t.Errorf("histogram sums to %v", histSum)
	}
}

func TestExtractClientMissingValues(t *testing.T) {
	vals := make([]float64, 600)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = rng.NormFloat64()
		if i%10 == 0 {
			vals[i] = math.NaN()
		}
	}
	s := timeseries.New("gappy", vals, timeseries.RateHourly)
	cf := ExtractClient(s, -5, 5)
	if math.Abs(cf.MissingPct-10) > 0.5 {
		t.Errorf("MissingPct = %v, want ≈ 10", cf.MissingPct)
	}
	if math.IsNaN(cf.Skewness) || math.IsNaN(cf.Kurtosis) || math.IsNaN(cf.FractalDim) {
		t.Error("NaN leaked into meta-features")
	}
}

func TestRandomWalkStationarityLadder(t *testing.T) {
	s := walkSeries(1500, 3)
	cf := ExtractClient(s, -100, 100)
	if cf.Stationary != 0 {
		t.Error("random walk flagged stationary")
	}
	if cf.StationaryDiff1 != 1 {
		t.Error("differenced walk should be stationary")
	}
}

func TestAggregateAcrossClients(t *testing.T) {
	clients := []*timeseries.Series{
		seasonalSeries(900, 24, 0.3, 4),
		seasonalSeries(1100, 24, 0.3, 5),
		walkSeries(1000, 6),
	}
	agg, feats := ComputeAggregated(clients)
	if len(feats) != 3 {
		t.Fatalf("client features = %d", len(feats))
	}
	if agg.NumClients != 3 {
		t.Errorf("NumClients = %v", agg.NumClients)
	}
	if agg.Instances.Sum != 3000 {
		t.Errorf("instance sum = %v", agg.Instances.Sum)
	}
	if agg.Instances.Min != 900 || agg.Instances.Max != 1100 {
		t.Errorf("instance min/max = %v/%v", agg.Instances.Min, agg.Instances.Max)
	}
	// Mixed stationarity (2 stationary, 1 not) → entropy > 0.
	if agg.StationaryEntr <= 0 {
		t.Errorf("stationarity entropy = %v, want > 0 for mixed flags", agg.StationaryEntr)
	}
	// Clients with different distributions → positive mean KL.
	if !(agg.KL.Avg > 0) {
		t.Errorf("mean pairwise KL = %v, want > 0", agg.KL.Avg)
	}
	// The global seasonal merge should recover period ≈ 24.
	if len(agg.GlobalSeasonal) == 0 {
		t.Fatal("no global seasonal components")
	}
	if math.Abs(float64(agg.GlobalSeasonal[0].Period)-24) > 2 {
		t.Errorf("global dominant period = %d", agg.GlobalSeasonal[0].Period)
	}
	if agg.PeriodMin <= 0 || agg.PeriodMax < agg.PeriodMin {
		t.Errorf("period range = [%v, %v]", agg.PeriodMin, agg.PeriodMax)
	}
}

func TestAggregateEmptyAndSingle(t *testing.T) {
	agg := Aggregate(nil)
	if agg.NumClients != 0 {
		t.Error("empty aggregate wrong")
	}
	s := seasonalSeries(800, 12, 0.1, 7)
	aggOne, _ := ComputeAggregated([]*timeseries.Series{s})
	if aggOne.NumClients != 1 {
		t.Error("single client count wrong")
	}
	// No pairs → KL summary zeros.
	if aggOne.KL.Avg != 0 && !math.IsNaN(aggOne.KL.Avg) {
		t.Errorf("single-client KL = %v", aggOne.KL.Avg)
	}
	// Identical client → stationarity flags unanimous → entropy 0.
	if aggOne.StationaryEntr != 0 {
		t.Errorf("single-client entropy = %v", aggOne.StationaryEntr)
	}
}

func TestVectorShapeAndFiniteness(t *testing.T) {
	clients := []*timeseries.Series{
		seasonalSeries(900, 24, 0.3, 8),
		walkSeries(900, 9),
	}
	agg, _ := ComputeAggregated(clients)
	vec := agg.Vector()
	names := VectorNames()
	if len(vec) != len(names) {
		t.Fatalf("vector length %d != names %d", len(vec), len(names))
	}
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("vector[%d] (%s) = %v", i, names[i], v)
		}
	}
	// Table 1 coverage sanity: all 16 meta-feature families present.
	wantPrefixes := []string{
		"num_clients", "sampling_rate", "instances_", "missing_", "stationary_",
		"stationarity_entropy", "stationary_d1_", "stationary_d2_", "siglags_",
		"insiggaps_", "seasonal_count_", "skewness_", "kurtosis_", "fractal_",
		"period_", "kl_",
	}
	for _, p := range wantPrefixes {
		found := false
		for _, n := range names {
			if len(n) >= len(p) && n[:len(p)] == p {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no vector entry with prefix %q", p)
		}
	}
}

func TestGlobalSigLagsRespectMaxCount(t *testing.T) {
	// AR(1) clients: lag 1 significant on each; the union should be
	// small and include lag 1.
	mk := func(seed int64) *timeseries.Series {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 1200)
		for i := 1; i < len(vals); i++ {
			vals[i] = 0.8*vals[i-1] + rng.NormFloat64()
		}
		return timeseries.New("ar", vals, timeseries.RateDaily)
	}
	agg, feats := ComputeAggregated([]*timeseries.Series{mk(10), mk(11), mk(12)})
	maxCount := 0
	for _, f := range feats {
		if len(f.SigLags) > maxCount {
			maxCount = len(f.SigLags)
		}
	}
	if len(agg.GlobalSigLags) > maxCount {
		t.Errorf("global lags %v exceed max client count %d", agg.GlobalSigLags, maxCount)
	}
	found := false
	for _, l := range agg.GlobalSigLags {
		if l == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("lag 1 missing from %v", agg.GlobalSigLags)
	}
	// Ascending order.
	for i := 1; i < len(agg.GlobalSigLags); i++ {
		if agg.GlobalSigLags[i] <= agg.GlobalSigLags[i-1] {
			t.Errorf("global lags not ascending: %v", agg.GlobalSigLags)
		}
	}
}

func TestConstantRangeHistogramSafe(t *testing.T) {
	vals := make([]float64, 600)
	for i := range vals {
		vals[i] = 7
	}
	s := timeseries.New("const", vals, timeseries.RateDaily)
	agg, _ := ComputeAggregated([]*timeseries.Series{s, s.Clone()})
	for i, v := range agg.Vector() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("constant series vector[%d] = %v", i, v)
		}
	}
}
