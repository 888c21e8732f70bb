package core

import (
	"errors"
	"math"

	"fedforecaster/internal/fl"
	"fedforecaster/internal/nbeats"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/timeseries"
)

// NBeatsFedConfig controls the federated N-BEATS baseline.
type NBeatsFedConfig struct {
	Model      nbeats.Config
	Rounds     int // FedAvg communication rounds
	LocalSteps int // minibatch steps per client per round
	Splits     pipeline.Splits
	Seed       int64
}

// RunNBeatsFederated trains N-BEATS with FedAvg across the client
// splits and reports the size-weighted one-step test MSE of the final
// global model — the paper's "N-Beats" column of Table 3.
func RunNBeatsFederated(clients []*timeseries.Series, cfg NBeatsFedConfig) (float64, error) {
	if len(clients) == 0 {
		return 0, errors.New("core: no clients")
	}
	// Global standardization from privacy-preserving client moments.
	mean, std := globalMoments(clients)

	models := make([]*nbeats.Model, len(clients))
	sizes := make([]float64, len(clients))
	trainEnds := make([]int, len(clients))
	validEnds := make([]int, len(clients))
	usable := 0
	for i, s := range clients {
		mcfg := cfg.Model
		mcfg.Seed = cfg.Seed // identical init across clients (FedAvg requirement)
		m := nbeats.New(mcfg)
		m.SetStandardization(mean, std)
		models[i] = m
		sizes[i] = float64(s.Len())
		trainEnds[i], validEnds[i] = cfg.Splits.Bounds(s.Len())
		if trainEnds[i] >= mcfg.BackcastLength+mcfg.ForecastLength {
			usable++
		}
	}
	if usable == 0 {
		return 0, errors.New("core: every client split is shorter than the N-BEATS window")
	}

	global := models[0].Weights()
	for round := 0; round < cfg.Rounds; round++ {
		var vecs [][]float64
		var ws []float64
		for i, s := range clients {
			m := models[i]
			if err := m.SetWeights(global); err != nil {
				return 0, err
			}
			train := s.Interpolate().Values[:validEnds[i]]
			if err := m.TrainSteps(train, cfg.LocalSteps); err != nil {
				continue // split too small for the window: sit out
			}
			vecs = append(vecs, m.Weights())
			ws = append(ws, sizes[i])
		}
		if len(vecs) == 0 {
			return 0, errors.New("core: no client could train N-BEATS")
		}
		avg, err := fl.FedAvg(vecs, ws)
		if err != nil {
			return 0, err
		}
		global = avg
	}

	// Final global model evaluated on each client's test region.
	var losses, ws []float64
	for i, s := range clients {
		m := models[i]
		if err := m.SetWeights(global); err != nil {
			return 0, err
		}
		vals := s.Interpolate().Values
		history := vals[:validEnds[i]]
		test := vals[validEnds[i]:]
		if len(test) == 0 || len(history) < cfg.Model.BackcastLength {
			continue
		}
		mse, err := m.EvaluateOneStep(history, test)
		if err != nil || math.IsNaN(mse) {
			continue
		}
		losses = append(losses, mse)
		ws = append(ws, sizes[i])
	}
	return fl.WeightedLoss(losses, ws)
}

// RunNBeatsConsolidated trains N-BEATS centrally on the consolidated
// series (the "N-Beats Cons." column): fit on train+valid, report
// one-step test MSE.
func RunNBeatsConsolidated(full *timeseries.Series, cfg NBeatsFedConfig) (float64, error) {
	if full == nil {
		return 0, errors.New("core: no consolidated series")
	}
	vals := full.Interpolate().Values
	_, validEnd := cfg.Splits.Bounds(len(vals))
	mcfg := cfg.Model
	mcfg.Seed = cfg.Seed
	m := nbeats.New(mcfg)
	if err := m.Fit(vals[:validEnd]); err != nil {
		return 0, err
	}
	return m.EvaluateOneStep(vals[:validEnd], vals[validEnd:])
}

// globalMoments aggregates client means/variances into global
// standardization statistics without centralizing data.
func globalMoments(clients []*timeseries.Series) (mean, std float64) {
	var total, sum float64
	for _, s := range clients {
		for _, v := range s.Values {
			if !math.IsNaN(v) {
				sum += v
				total++
			}
		}
	}
	if total == 0 {
		return 0, 1
	}
	mean = sum / total
	var ss float64
	for _, s := range clients {
		for _, v := range s.Values {
			if !math.IsNaN(v) {
				d := v - mean
				ss += float64(d * d)
			}
		}
	}
	std = math.Sqrt(ss / total)
	if std < 1e-12 {
		std = 1
	}
	return mean, std
}
