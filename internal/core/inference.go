package core

import (
	"errors"
	"math"

	"fedforecaster/internal/features"
	"fedforecaster/internal/model"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// LocalModel is a deployed per-client forecaster: the globally
// selected configuration fitted on one client's full history
// (Algorithm 1 lines 23-25), able to produce multi-step forecasts by
// iterated one-step prediction with feature re-engineering.
type LocalModel struct {
	series *timeseries.Series
	eng    *features.Engineer
	reg    model.Regressor
}

// Deployment holds the per-client models produced by Deploy.
type Deployment struct {
	Models []*LocalModel
	Config search.Config
}

// Deploy fits the run's best configuration on every client's complete
// series and returns ready-to-forecast local models — the inference
// phase of the paper (Figure 1-IV). The feature schema is rebuilt from
// the result's aggregated meta-features so deployment matches the
// schema optimization used.
func Deploy(clients []*timeseries.Series, res *Result, seed int64) (*Deployment, error) {
	if res == nil || res.BestConfig.Algorithm == "" {
		return nil, errors.New("core: Deploy requires a completed Result")
	}
	eng := features.NewEngineer(res.AggregatedMeta)
	if len(res.KeptFeatures) > 0 {
		maxKeep := 0
		for _, k := range res.KeptFeatures {
			if k > maxKeep {
				maxKeep = k
			}
		}
		if maxKeep < len(eng.FeatureNames()) {
			eng.Keep = res.KeptFeatures
		}
	}
	dep := &Deployment{Config: res.BestConfig.Clone()}
	for i, s := range clients {
		lm, err := fitLocal(s, eng, res.BestConfig, seed+int64(i))
		if err != nil {
			return nil, err
		}
		dep.Models = append(dep.Models, lm)
	}
	return dep, nil
}

func fitLocal(s *timeseries.Series, eng *features.Engineer, cfg search.Config, seed int64) (*LocalModel, error) {
	ds, err := eng.Build(s, 0)
	if err != nil {
		return nil, err
	}
	reg, err := search.Instantiate(cfg, seed)
	if err != nil {
		return nil, err
	}
	if err := reg.Fit(ds.X, ds.Y); err != nil {
		return nil, err
	}
	// Keep a private copy of the engineer so Keep mutations elsewhere
	// cannot skew this model's schema.
	engCopy := *eng
	return &LocalModel{series: s.Clone(), eng: &engCopy, reg: reg}, nil
}

// Forecast predicts the next horizon values after the client's series
// by iterated one-step prediction: each predicted value is appended to
// a working copy of the series and the features are re-engineered, so
// lag, trend, calendar and Fourier features all advance consistently.
func (m *LocalModel) Forecast(horizon int) ([]float64, error) {
	if horizon < 1 {
		return nil, errors.New("core: horizon must be ≥ 1")
	}
	work := m.series.Interpolate()
	trainLen := work.Len() // trend fitted on observed history only
	out := make([]float64, 0, horizon)
	for h := 0; h < horizon; h++ {
		work.Values = append(work.Values, math.NaN())
		// Extend exogenous channels by carrying the last value forward
		// (future exog is unknown at inference time).
		for name, ch := range work.Exog {
			if len(ch) > 0 {
				work.Exog[name] = append(ch, ch[len(ch)-1])
			}
		}
		// Build with a placeholder target for the new row; only its
		// feature vector is consumed.
		work.Values[len(work.Values)-1] = work.Values[len(work.Values)-2]
		ds, err := m.eng.Build(work, trainLen)
		if err != nil {
			return nil, err
		}
		row := ds.X[ds.Len()-1]
		pred := m.reg.Predict([][]float64{row})[0]
		work.Values[len(work.Values)-1] = pred
		out = append(out, pred)
	}
	return out, nil
}
