package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"fedforecaster/internal/linmodel"
	"fedforecaster/internal/model"
	"fedforecaster/internal/search"
)

// linearCfgs are the linear candidates that fit through a phase's
// shared design: Lasso in both selection modes, ElasticNetCV and
// Huber.
func linearCfgs() []search.Config {
	return []search.Config{
		lassoCfg(),
		{Algorithm: search.AlgoLasso, Values: map[string]float64{"alpha": 0.01}, Cats: map[string]string{"selection": "random"}},
		{Algorithm: search.AlgoElasticNetCV, Values: map[string]float64{"l1_ratio": 0.6}, Cats: map[string]string{"selection": "cyclic"}},
		{Algorithm: search.AlgoHuber, Values: map[string]float64{"alpha": 0.01}, Cats: map[string]string{"epsilon": "1.35"}},
	}
}

// allocatedBytes returns the bytes the heap handed out while f ran.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPhaseDesignBuiltOnce checks that the linear candidates evaluated
// on one PhaseData build its design once between them. Every
// evaluation — one after another, and concurrently with the fixed
// linear arm beside each candidate — must score bit for bit what a fit
// on the training rows scores. A design build standardizes a copy of
// the training rows; an evaluation on a fresh PhaseData must allocate
// at least that copy, and every evaluation after the first on one
// PhaseData less than it.
func TestPhaseDesignBuiltOnce(t *testing.T) {
	clients := multivariateClients(t, 1500, 3, 42)
	eng := testEngineer(clients)
	splits := Splits{ValidFrac: 0.15, TestFrac: 0.15}
	gp, err := BuildGraphPhase(clients[0], eng, splits, "valid")
	if err != nil {
		t.Fatal(err)
	}
	pd := gp.folds[0].base
	n, p := pd.Train.Len(), len(pd.Train.X[0])
	copyBytes := uint64(n * (p + 1) * 8)

	// want is the loss of a fit on the rows, without the design.
	want := func(cfg search.Config, seed int64) float64 {
		m, err := search.Instantiate(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(pd.Train.X, pd.Train.Y); err != nil {
			t.Fatal(err)
		}
		return model.MSE(m.Predict(pd.Score.X), pd.Score.Y)
	}
	loss := func(pd *PhaseData, cfg search.Config, seed int64) (float64, error) {
		preds, err := fitPredict(pd, cfg, seed)
		if err != nil {
			return 0, err
		}
		return model.MSE(preds, pd.Score.Y), nil
	}

	cfgs := linearCfgs()
	fresh := func() *PhaseData {
		return &PhaseData{Train: pd.Train, Score: pd.Score, design: linmodel.NewDesign(pd.Train.X, pd.Train.Y)}
	}
	if cold := allocatedBytes(func() { loss(fresh(), cfgs[0], 1) }); cold < copyBytes {
		t.Fatalf("a cold evaluation allocated %d bytes, less than the %d of one standardized copy: the check below cannot see a rebuild", cold, copyBytes)
	}
	const evals = 8
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= evals; seed++ {
			var got float64
			bytes := allocatedBytes(func() { got, err = loss(pd, cfg, seed) })
			if err != nil {
				t.Fatal(err)
			}
			if w := want(cfg, seed); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("%s seed %d: loss %v through the design, %v on the rows", cfg.Algorithm, seed, got, w)
			}
			if seed > 1 && bytes >= copyBytes {
				t.Errorf("%s seed %d: evaluation allocated %d bytes, one standardized copy takes %d: the design was rebuilt", cfg.Algorithm, seed, bytes, copyBytes)
			}
		}
	}

	// Concurrent candidates, each beside the fixed linear arm, on a
	// fresh phase: the first build races with the others.
	gp, err = BuildGraphPhase(clients[0], eng, splits, "valid")
	if err != nil {
		t.Fatal(err)
	}
	armed := make([]search.Config, len(cfgs))
	wantArmed := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		armed[i] = search.Config{Algorithm: cfg.Algorithm, Values: cfg.Values, Cats: map[string]string{search.StructArm2: "linear"}}
		for k, v := range cfg.Cats {
			armed[i].Cats[k] = v
		}
		l, _, err := ClientLoss(clients[0], eng, armed[i], splits, "valid", 1)
		if err != nil {
			t.Fatal(err)
		}
		wantArmed[i] = l
	}
	var wg sync.WaitGroup
	errs := make([]error, evals*len(cfgs))
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := r % len(cfgs)
			l, _, err := gp.Loss(armed[i], 1)
			if err == nil && math.Float64bits(l) != math.Float64bits(wantArmed[i]) {
				err = fmt.Errorf("%s beside the linear arm: loss %v on a shared phase, %v on a fresh one", armed[i].Algorithm, l, wantArmed[i])
			}
			errs[r] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
