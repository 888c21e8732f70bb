package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fedforecaster/internal/fl"
	"fedforecaster/internal/metalearn"
	"fedforecaster/internal/nbeats"
	"fedforecaster/internal/obs"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// fedDataset builds a seasonal AR federated dataset with n clients.
func fedDataset(t testing.TB, total, clients int, seed int64) []*timeseries.Series {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, total)
	vals[0] = 20
	for i := 1; i < total; i++ {
		season := 3 * math.Sin(2*math.Pi*float64(i)/24)
		vals[i] = 20 + 0.7*(vals[i-1]-20) + season + 0.5*rng.NormFloat64()
	}
	s := timeseries.New("fed", vals, timeseries.RateDaily)
	parts, err := s.PartitionClients(clients, 50)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func smallEngineConfig(seed int64) EngineConfig {
	cfg := DefaultEngineConfig()
	cfg.Iterations = 6
	cfg.Seed = seed
	// Restrict to fast algorithms for test speed.
	var spaces []search.Space
	for _, sp := range search.DefaultSpaces() {
		switch sp.Algorithm {
		case search.AlgoLasso, search.AlgoHuber:
			spaces = append(spaces, sp)
		}
	}
	cfg.Spaces = spaces
	return cfg
}

func TestEngineRunEndToEnd(t *testing.T) {
	clients := fedDataset(t, 1500, 3, 1)
	eng := NewEngine(nil, smallEngineConfig(2))
	var phases []string
	eng.Cfg.Recorder = recorderFunc(func(ev obs.Event) {
		if e, ok := ev.(obs.SpanStart); ok && e.Kind == obs.SpanPhase {
			phases = append(phases, e.Name)
		}
	})
	res, err := eng.Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 6 {
		t.Errorf("iterations = %d, want 6", res.Iterations)
	}
	if res.BestConfig.Algorithm == "" {
		t.Error("no best config")
	}
	if math.IsNaN(res.TestMSE) || res.TestMSE <= 0 {
		t.Errorf("test MSE = %v", res.TestMSE)
	}
	if res.BestValidLoss <= 0 {
		t.Errorf("valid loss = %v", res.BestValidLoss)
	}
	// History is recorded and its minimum equals the best loss.
	minLoss := math.Inf(1)
	for _, h := range res.History {
		if h.GlobalLoss < minLoss {
			minLoss = h.GlobalLoss
		}
	}
	if math.Abs(minLoss-res.BestValidLoss) > 1e-12 {
		t.Errorf("best loss %v != history min %v", res.BestValidLoss, minLoss)
	}
	// All four Figure-1 phases traced, Phase III as its two halves.
	if got, want := fmt.Sprint(phases), "[meta-features recommend feature-select optimize final-fit]"; got != want {
		t.Errorf("phase spans = %s, want %s", got, want)
	}
}

// recorderFunc adapts a function to obs.Recorder. Spans of concurrent
// client calls reach it from several goroutines at once.
type recorderFunc func(obs.Event)

// Record implements obs.Recorder.
func (f recorderFunc) Record(ev obs.Event) { f(ev) }

func TestEngineMetaModelRestrictsSpace(t *testing.T) {
	clients := fedDataset(t, 1200, 3, 3)
	// Build a tiny KB that always recommends Lasso.
	kb := &metalearn.KnowledgeBase{FeatureNames: []string{"f"}}
	rng := rand.New(rand.NewSource(4))
	var vecLen int
	{
		// Use the real meta-feature vector length for compatibility.
		eng := NewEngine(nil, smallEngineConfig(5))
		res, err := eng.Run(clients)
		if err != nil {
			t.Fatal(err)
		}
		vecLen = len(res.AggregatedMeta.Vector())
	}
	for i := 0; i < 40; i++ {
		vec := make([]float64, vecLen)
		for j := range vec {
			vec[j] = rng.NormFloat64()
		}
		label := search.AlgoLasso
		if i%4 == 0 {
			label = search.AlgoHuber // minority class so the clf is multiclass
		}
		kb.Records = append(kb.Records, metalearn.Record{
			Dataset: "kb", MetaFeatures: vec,
			AlgoLosses:    map[string]float64{label: 1},
			BestAlgorithm: label,
		})
	}
	clf, _ := metalearn.NewClassifier("Random Forest", 6)
	mm, err := metalearn.TrainMetaModel(kb, clf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallEngineConfig(7)
	cfg.TopK = 1
	cfg.Spaces = nil // full Table 2; restriction must come from the meta-model
	engine := NewEngine(mm, cfg)
	res, err := engine.Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommended) != 1 {
		t.Fatalf("recommended = %v", res.Recommended)
	}
	// Every evaluated config must belong to the recommended algorithm.
	for _, h := range res.History {
		if h.Config.Algorithm != res.Recommended[0] {
			t.Errorf("config %s outside recommended space %v", h.Config.Algorithm, res.Recommended)
		}
	}
}

func TestEngineFeatureSelectionRecorded(t *testing.T) {
	clients := fedDataset(t, 1200, 3, 8)
	cfg := smallEngineConfig(9)
	engine := NewEngine(nil, cfg)
	res, err := engine.Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KeptFeatures) == 0 {
		t.Error("feature selection kept nothing")
	}
	if len(res.KeptFeatures) > res.NumFeatures {
		t.Errorf("kept %d of %d features", len(res.KeptFeatures), res.NumFeatures)
	}
}

func TestEngineTimeBudget(t *testing.T) {
	clients := fedDataset(t, 1200, 3, 10)
	cfg := smallEngineConfig(11)
	cfg.Iterations = 10000
	cfg.TimeBudget = 300 * time.Millisecond
	engine := NewEngine(nil, cfg)
	start := time.Now()
	res, err := engine.Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("time budget ignored: ran %v", elapsed)
	}
	if res.Iterations >= 10000 {
		t.Error("iterations not bounded by time budget")
	}
}

func TestRandomSearchBaseline(t *testing.T) {
	clients := fedDataset(t, 1200, 3, 12)
	res, err := RunRandomSearch(clients, RandomSearchConfig{Iterations: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if len(res.Recommended) != 0 {
		t.Error("random search should have no recommendations")
	}
	if math.IsNaN(res.TestMSE) {
		t.Error("test MSE NaN")
	}
}

func TestEngineNoClients(t *testing.T) {
	engine := NewEngine(nil, smallEngineConfig(14))
	srv := fl.NewServer(fl.NewInProcWire(nil, fl.WireOpts{}))
	if _, err := engine.RunWithServer(srv); err == nil {
		t.Error("no-client run accepted")
	}
}

func TestEngineOverTCPTransport(t *testing.T) {
	clients := fedDataset(t, 1200, 3, 15)
	addrCh := make(chan string, 1)
	type listenResult struct {
		tr  *fl.TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	go func() {
		tr, err := fl.ListenTCP("127.0.0.1:0", len(clients), 10*time.Second, addrCh, fl.WireOpts{})
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh
	stop := make(chan struct{})
	for i, s := range clients {
		go func(i int, s *timeseries.Series) {
			_ = fl.ServeTCP(addr, NewClientNode(s, int64(i)), stop, fl.WireOpts{})
		}(i, s)
	}
	lr := <-resCh
	if lr.err != nil {
		t.Fatal(lr.err)
	}
	srv := fl.NewServer(lr.tr)
	defer func() {
		close(stop)
		srv.Close()
	}()

	cfg := smallEngineConfig(16)
	cfg.Iterations = 3
	engine := NewEngine(nil, cfg)
	res, err := engine.RunWithServer(srv)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.TestMSE) || res.TestMSE <= 0 {
		t.Errorf("TCP run test MSE = %v", res.TestMSE)
	}
}

func TestProtocolCodecsRoundTrip(t *testing.T) {
	cfg := search.Config{
		Algorithm: search.AlgoXGB,
		Values:    map[string]float64{"n_estimators": 10, "max_depth": 3},
		Cats:      map[string]string{"selection": "random"},
	}
	msg := fl.NewMessage(kindEvalConfig)
	encodeConfigAt(&msg, cfg, 0)
	back := decodeConfigAt(msg, 0)
	if back.Algorithm != cfg.Algorithm || back.Values["n_estimators"] != 10 || back.Cats["selection"] != "random" {
		t.Errorf("config round trip = %+v", back)
	}

	splits := pipeline.Splits{ValidFrac: 0.2, TestFrac: 0.1}
	encodeSplits(&msg, splits)
	if got := decodeSplits(msg); got != splits {
		t.Errorf("splits round trip = %+v", got)
	}
}

func TestNBeatsFederatedBaseline(t *testing.T) {
	clients := fedDataset(t, 900, 3, 17)
	cfg := NBeatsFedConfig{
		Model: nbeats.Config{
			BackcastLength: 24, ForecastLength: 1,
			GenericBlocks: 1, TrendBlocks: 1, SeasonalBlocks: 1,
			GenericNeurons: 16, TrendNeurons: 16, SeasonalNeurons: 16,
			LR: 5e-3, BatchSize: 32, Epochs: 1,
		},
		Rounds:     3,
		LocalSteps: 20,
		Splits:     pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15},
		Seed:       18,
	}
	mse, err := RunNBeatsFederated(clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mse) || mse <= 0 {
		t.Fatalf("federated N-BEATS MSE = %v", mse)
	}
}

func TestNBeatsConsolidatedBaseline(t *testing.T) {
	clients := fedDataset(t, 900, 3, 19)
	full := timeseries.New("full", nil, timeseries.RateDaily)
	for _, c := range clients {
		full.Values = append(full.Values, c.Values...)
	}
	cfg := NBeatsFedConfig{
		Model: nbeats.Config{
			BackcastLength: 24, ForecastLength: 1,
			GenericBlocks: 1, TrendBlocks: 1, SeasonalBlocks: 1,
			GenericNeurons: 16, TrendNeurons: 16, SeasonalNeurons: 16,
			LR: 5e-3, BatchSize: 64, Epochs: 4,
		},
		Splits: pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15},
		Seed:   20,
	}
	mse, err := RunNBeatsConsolidated(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mse) || mse <= 0 {
		t.Fatalf("consolidated N-BEATS MSE = %v", mse)
	}
	if _, err := RunNBeatsConsolidated(nil, cfg); err == nil {
		t.Error("nil consolidated series accepted")
	}
}

func TestFedForecasterBeatsRandomSearchOnSeasonalData(t *testing.T) {
	// The headline claim at small scale: with equal iteration budgets,
	// FedForecaster (warm start + BO) should usually match or beat
	// random search. Use majority over seeds to keep the test stable.
	wins := 0
	const trials = 3
	for seed := int64(0); seed < trials; seed++ {
		clients := fedDataset(t, 1200, 3, 100+seed)
		ff, err := RunFedForecaster(clients, nil, 6, pipeline.Splits{}, 200+seed)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RunRandomSearch(clients, RandomSearchConfig{Iterations: 6, Seed: 300 + seed})
		if err != nil {
			t.Fatal(err)
		}
		if ff.TestMSE <= rs.TestMSE*1.05 {
			wins++
		}
	}
	if wins < 2 {
		t.Errorf("FedForecaster competitive in only %d/%d trials", wins, trials)
	}
}
