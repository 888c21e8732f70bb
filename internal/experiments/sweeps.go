package experiments

import (
	"fmt"
	"strings"

	"fedforecaster/internal/bayesopt"
	"fedforecaster/internal/core"
	"fedforecaster/internal/features"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/synth"
	"fedforecaster/internal/timeseries"
)

// SweepPoint is one cell of a sweep: the varied value and the test MSE
// of FedForecaster and random search at that value.
type SweepPoint struct {
	Value         float64
	FedForecaster float64
	RandomSearch  float64
}

// SweepReport is a one-dimensional sweep result.
type SweepReport struct {
	Name   string
	Points []SweepPoint
}

// Format renders the sweep as aligned columns.
func (r *SweepReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s sweep\n%10s %14s %14s\n", r.Name, r.Name, "FedForecaster", "RandomSearch")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.4g %14.5g %14.5g\n", p.Value, p.FedForecaster, p.RandomSearch)
	}
	return b.String()
}

// sweepSeries builds the shared dataset the sweeps run on: the
// USBirthsDaily-family generator, whose strong calendar structure
// makes the AutoML comparison informative.
func sweepSeries(scale float64, seed int64) (*timeseries.Series, error) {
	var d synth.EvalDataset
	for _, e := range synth.EvalDatasets() {
		if e.Family == synth.FamilyBirths {
			d = e
		}
	}
	d = d.Scaled(scale)
	d.Seed = seed
	_, full, err := d.Generate()
	return full, err
}

// RunClientSweep reproduces the "possible client counts" extension
// experiment: the same dataset split into 5/10/15/20 clients.
func RunClientSweep(scale float64, iterations int, seed int64) (*SweepReport, error) {
	full, err := sweepSeries(scale, seed)
	if err != nil {
		return nil, err
	}
	report := &SweepReport{Name: "clients"}
	splits := pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15}
	for _, n := range []int{5, 10, 15, 20} {
		clients, err := full.PartitionClients(n, 60)
		if err != nil {
			continue // split too small at this scale — the paper drops these too
		}
		ff, err := core.RunFedForecaster(clients, nil, iterations, splits, seed+int64(n))
		if err != nil {
			return nil, err
		}
		rs, err := core.RunRandomSearch(clients, core.RandomSearchConfig{
			Iterations: iterations, Splits: splits, Seed: seed + int64(n) + 1,
		})
		if err != nil {
			return nil, err
		}
		report.Points = append(report.Points, SweepPoint{
			Value: float64(n), FedForecaster: ff.TestMSE, RandomSearch: rs.TestMSE,
		})
	}
	return report, nil
}

// RunBudgetSweep reproduces the "different time budgets" extension
// experiment, with budgets expressed in optimization iterations.
func RunBudgetSweep(scale float64, budgets []int, seed int64) (*SweepReport, error) {
	full, err := sweepSeries(scale, seed)
	if err != nil {
		return nil, err
	}
	clients, err := full.PartitionClients(5, 60)
	if err != nil {
		return nil, err
	}
	if len(budgets) == 0 {
		budgets = []int{2, 4, 8, 16}
	}
	report := &SweepReport{Name: "budget"}
	splits := pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15}
	for _, budget := range budgets {
		ff, err := core.RunFedForecaster(clients, nil, budget, splits, seed+int64(budget))
		if err != nil {
			return nil, err
		}
		rs, err := core.RunRandomSearch(clients, core.RandomSearchConfig{
			Iterations: budget, Splits: splits, Seed: seed + int64(budget) + 1,
		})
		if err != nil {
			return nil, err
		}
		report.Points = append(report.Points, SweepPoint{
			Value: float64(budget), FedForecaster: ff.TestMSE, RandomSearch: rs.TestMSE,
		})
	}
	return report, nil
}

// AblationResult compares the full engine against one disabled
// component on the same dataset.
type AblationResult struct {
	Name        string
	FullMSE     float64
	AblatedMSE  float64
	FullLoss    float64 // best validation loss
	AblatedLoss float64
	Iterations  int
}

// RunAblation executes the named ablation ("warmstart", "surrogate",
// "featuresel", "globalmeta") on the births-family dataset.
func RunAblation(name string, scale float64, iterations int, seed int64) (*AblationResult, error) {
	full, err := sweepSeries(scale, seed)
	if err != nil {
		return nil, err
	}
	clients, err := full.PartitionClients(5, 60)
	if err != nil {
		return nil, err
	}
	base := core.DefaultEngineConfig()
	base.Iterations = iterations
	base.Seed = seed

	fullRes, err := core.NewEngine(nil, base).Run(clients)
	if err != nil {
		return nil, err
	}

	if name == "globalmeta" {
		abl, ablLoss, err := runLocalMetaBaseline(clients, iterations, seed)
		if err != nil {
			return nil, err
		}
		return &AblationResult{
			Name:        name,
			FullMSE:     fullRes.TestMSE,
			AblatedMSE:  abl,
			FullLoss:    fullRes.BestValidLoss,
			AblatedLoss: ablLoss,
			Iterations:  iterations,
		}, nil
	}

	ablated := base
	switch name {
	case "warmstart":
		ablated.WarmStart = false
	case "surrogate":
		ablated.UseBayesOpt = false
	case "featuresel":
		ablated.FeatureSelection = false
	default:
		return nil, fmt.Errorf("experiments: unknown ablation %q", name)
	}
	ablRes, err := core.NewEngine(nil, ablated).Run(clients)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:        name,
		FullMSE:     fullRes.TestMSE,
		AblatedMSE:  ablRes.TestMSE,
		FullLoss:    fullRes.BestValidLoss,
		AblatedLoss: ablRes.BestValidLoss,
		Iterations:  iterations,
	}, nil
}

// runLocalMetaBaseline ablates the paper's *unified* feature
// engineering: each client derives its schema from its own local
// meta-features only (a single-client aggregate), so clients disagree
// on lags and seasonal periods. Optimization is otherwise identical
// (BO over Table 2 against the weighted loss). Returns (testMSE,
// bestValidLoss).
func runLocalMetaBaseline(clients []*timeseries.Series, iterations int, seed int64) (float64, float64, error) {
	splits := pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15}
	// Per-client engineers from local-only aggregates.
	engs := make([]*features.Engineer, len(clients))
	for i, s := range clients {
		agg, _ := metafeat.ComputeAggregated([]*timeseries.Series{s})
		engs[i] = features.NewEngineer(agg)
	}
	sizes := make([]float64, len(clients))
	for i, s := range clients {
		sizes[i] = float64(s.Len())
	}
	evalPhase := func(cfg search.Config, phase string) (float64, error) {
		var losses, ws []float64
		for i, s := range clients {
			loss, _, err := pipeline.ClientLoss(s, engs[i], cfg, splits, phase, seed+int64(i))
			if err != nil {
				continue
			}
			losses = append(losses, loss)
			ws = append(ws, sizes[i])
		}
		return fl.WeightedLoss(losses, ws)
	}

	opt := bayesopt.New(search.DefaultSpaces(), seed)
	for _, sp := range search.DefaultSpaces() {
		u := make([]float64, sp.Dim())
		for i := range u {
			u[i] = 0.5
		}
		opt.Warm([]search.Config{sp.Decode(u)})
	}
	for iter := 0; iter < iterations; iter++ {
		batch := opt.ProposeBatch(1)
		loss, err := evalPhase(batch[0], "valid")
		if err != nil {
			return 0, 0, err
		}
		opt.ObserveAll(batch, []float64{loss})
	}
	best, bestLoss, ok := opt.Best()
	if !ok {
		return 0, 0, fmt.Errorf("experiments: local-meta baseline made no evaluations")
	}
	testMSE, err := evalPhase(best, "test")
	return testMSE, bestLoss, err
}
