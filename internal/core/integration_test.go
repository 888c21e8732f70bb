package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fedforecaster/internal/fl"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// TestEngineExercisesFullTable2Space runs the engine long enough that
// every Table 2 algorithm family gets evaluated at least once through
// the federated protocol (warm start seeds one config per family).
func TestEngineExercisesFullTable2Space(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	clients := fedDataset(t, 1500, 3, 42)
	cfg := DefaultEngineConfig()
	cfg.Iterations = 8 // ≥ 6 warm starts + extra proposals
	cfg.Seed = 43
	engine := NewEngine(nil, cfg)
	res, err := engine.Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	evaluated := map[string]bool{}
	for _, h := range res.History {
		evaluated[h.Config.Algorithm] = true
		if math.IsNaN(h.GlobalLoss) {
			t.Errorf("NaN loss for %s", h.Config)
		}
	}
	for _, algo := range search.AllAlgorithms() {
		if !evaluated[algo] {
			t.Errorf("algorithm %s never evaluated", algo)
		}
	}
	if math.IsNaN(res.TestMSE) || res.TestMSE <= 0 {
		t.Errorf("test MSE = %v", res.TestMSE)
	}
}

// TestClientNodeRejectsUnknownKinds pins down the protocol surface.
func TestClientNodeRejectsUnknownKinds(t *testing.T) {
	node := NewClientNode(fedDataset(t, 600, 1, 44)[0], 1)
	if _, err := node.Properties(fl.NewMessage("props/ghost")); err == nil {
		t.Error("unknown properties kind accepted")
	}
	if _, err := node.Fit(fl.NewMessage("fit/ghost")); err == nil {
		t.Error("unknown fit kind accepted")
	}
	if _, err := node.Evaluate(fl.NewMessage("eval/ghost")); err == nil {
		t.Error("unknown eval kind accepted")
	}
}

// TestClientNodeSkipsTinySplit verifies the runtime guard for
// sub-minimal splits: the node reports itself skipped instead of
// failing the round.
func TestClientNodeSkipsTinySplit(t *testing.T) {
	tiny := fedDataset(t, 600, 1, 45)[0].Slice(0, 8)
	node := NewClientNode(tiny, 1)
	// Prepare by hand: short lags, no trend/time.
	prep := fl.NewMessage(kindEvalPrepare)
	prep.Ints["lags"] = []int{1, 2, 3}
	prep.Ints["flags"] = []int{0}
	prep.Scalars["valid_frac"] = 0.15
	prep.Scalars["test_frac"] = 0.15
	prep.Strings[keyFingerprint] = "tiny"
	if _, err := node.Evaluate(prep); err != nil {
		t.Fatal(err)
	}
	// Then a batch of one Lasso candidate.
	req := fl.NewMessage(kindEvalConfig)
	encodeBatch(&req, "tiny", []search.Config{{
		Algorithm: search.AlgoLasso,
		Values:    map[string]float64{"alpha": 0.01},
		Cats:      map[string]string{"selection": "cyclic"},
	}})
	resp, err := node.Evaluate(req)
	if err != nil {
		t.Fatalf("tiny split errored instead of skipping: %v", err)
	}
	if resp.Scalars["skipped"] != 1 {
		t.Errorf("tiny split not reported skipped: %v", resp.Scalars)
	}
}

// TestGlobalLossAllSkippedErrors: when every client skips, the round
// must fail loudly rather than return a fabricated loss.
func TestGlobalLossAllSkippedErrors(t *testing.T) {
	tiny := fedDataset(t, 600, 1, 46)[0].Slice(0, 8)
	engine := NewEngine(nil, smallEngineConfig(47))
	srv := fl.NewServer(fl.NewInProcWire([]fl.Client{NewClientNode(tiny, 1)}, fl.WireOpts{}))
	defer srv.Close()
	eng := decodeEngineer(func() fl.Message {
		m := fl.NewMessage("x")
		m.Ints["lags"] = []int{1, 2, 3}
		m.Ints["flags"] = []int{0}
		return m
	}())
	cfg := search.Config{
		Algorithm: search.AlgoLasso,
		Values:    map[string]float64{"alpha": 0.01},
		Cats:      map[string]string{"selection": "cyclic"},
	}
	engine.Cfg.Splits = pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15}
	rc := engine.newRoundContext(srv)
	rc.engineer = eng
	if err := rc.prepareEval(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.evalConfigs([]search.Config{cfg}, kindEvalConfig); err == nil {
		t.Error("all-skipped round returned a loss")
	}
}

// TestExogChannelsImproveFit: when the target is strongly driven by an
// exogenous channel, enabling the multivariate extension must reduce
// the test MSE substantially.
func TestExogChannelsImproveFit(t *testing.T) {
	clients := exogDataset(t)
	base := smallEngineConfig(49)
	without, err := NewEngine(nil, base).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	withCfg := base
	withCfg.ExogChannels = []string{"driver"}
	with, err := NewEngine(nil, withCfg).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	if with.TestMSE >= without.TestMSE {
		t.Errorf("exog channel did not help: with=%v without=%v", with.TestMSE, without.TestMSE)
	}
	if with.TestMSE > 0.5*without.TestMSE {
		t.Errorf("exog advantage too small: with=%v without=%v", with.TestMSE, without.TestMSE)
	}
}

// exogDataset builds three clients whose target is strongly driven by
// the exogenous channel "driver".
func exogDataset(t *testing.T) []*timeseries.Series {
	t.Helper()
	rng := rand.New(rand.NewSource(48))
	total := 1500
	driver := make([]float64, total)
	vals := make([]float64, total)
	for i := 1; i < total; i++ {
		driver[i] = 0.9*driver[i-1] + rng.NormFloat64()
		// Target = previous driver value + small noise: knowing the
		// channel makes forecasting nearly trivial.
		vals[i] = 5*driver[i-1] + 0.2*rng.NormFloat64()
	}
	s := timeseries.New("exog", vals, timeseries.RateDaily)
	s.Exog = map[string][]float64{"driver": driver}
	clients, err := s.PartitionClients(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	return clients
}

// TestEngineHandlesMissingValues: clients with NaN gaps must flow
// through interpolation into a successful run.
func TestEngineHandlesMissingValues(t *testing.T) {
	clients := fedDataset(t, 1200, 3, 52)
	rng := rand.New(rand.NewSource(53))
	for _, c := range clients {
		for i := range c.Values {
			if rng.Float64() < 0.05 {
				c.Values[i] = math.NaN()
			}
		}
	}
	res, err := NewEngine(nil, smallEngineConfig(54)).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.TestMSE) || res.TestMSE <= 0 {
		t.Fatalf("gappy-data MSE = %v", res.TestMSE)
	}
	// Missing fraction shows up in the aggregated meta-features.
	if res.AggregatedMeta.Missing.Avg < 2 || res.AggregatedMeta.Missing.Avg > 9 {
		t.Errorf("aggregated missing%% = %v, want ≈ 5", res.AggregatedMeta.Missing.Avg)
	}
}

// TestEngineMonthlyCalendar: a monthly-rate series exercises the
// calendar-feature path with real timestamps.
func TestEngineMonthlyCalendar(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	vals := make([]float64, 1400)
	for i := range vals {
		month := i % 12
		vals[i] = 100 + 10*math.Sin(2*math.Pi*float64(month)/12) + rng.NormFloat64()
	}
	s := timeseries.New("monthly", vals, timeseries.RateMonthly)
	s.Start = time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)
	clients, err := s.PartitionClients(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(nil, smallEngineConfig(56)).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	// Annual cycle with amplitude 10 and unit noise: a working model
	// should get close to the noise floor.
	if res.TestMSE > 25 {
		t.Errorf("monthly-series MSE = %v", res.TestMSE)
	}
}
