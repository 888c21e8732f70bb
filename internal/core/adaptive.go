package core

import (
	"errors"

	"fedforecaster/internal/features"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/timeseries"
)

// AdaptiveRunner implements the paper's "dynamic model adaptation"
// future-work direction: it watches the deployed configuration's
// global loss on fresh data and re-runs the optimization when the loss
// degrades beyond a tolerance, warm-starting from the incumbent.
type AdaptiveRunner struct {
	Engine *Engine
	// DriftRatio is the re-tune trigger: current loss must exceed
	// DriftRatio × the loss at deployment time (default 1.5).
	DriftRatio float64

	last *Result
}

// NewAdaptiveRunner wraps an engine for drift-aware operation.
func NewAdaptiveRunner(engine *Engine, driftRatio float64) *AdaptiveRunner {
	if driftRatio <= 1 {
		driftRatio = 1.5
	}
	return &AdaptiveRunner{Engine: engine, DriftRatio: driftRatio}
}

// Deploy runs the full pipeline once and records the deployed result.
func (a *AdaptiveRunner) Deploy(clients []*timeseries.Series) (*Result, error) {
	res, err := a.Engine.Run(clients)
	if err != nil {
		return nil, err
	}
	a.last = res
	return res, nil
}

// Last returns the currently deployed result (nil before Deploy).
func (a *AdaptiveRunner) Last() *Result { return a.last }

// ErrNotDeployed is returned by Check before a successful Deploy.
var ErrNotDeployed = errors.New("core: adaptive runner has no deployed model")

// Check evaluates the deployed configuration on the (possibly grown or
// shifted) client data. If the global validation loss exceeds
// DriftRatio × the deployed loss, the engine re-runs — warm-started
// from the incumbent configuration — and the deployment is replaced.
// It reports whether a re-tune happened and the loss that triggered
// the decision.
func (a *AdaptiveRunner) Check(clients []*timeseries.Series) (retuned bool, currentLoss float64, err error) {
	if a.last == nil {
		return false, 0, ErrNotDeployed
	}
	nodes := make([]fl.Client, len(clients))
	for i, s := range clients {
		nodes[i] = NewClientNode(s, a.Engine.Cfg.Seed+int64(i)*101)
	}
	srv := fl.NewServer(fl.NewInProcWire(nodes, a.Engine.Cfg.Wire))
	defer srv.Close()

	// Rebuild the feature schema on the *current* data so the check
	// reflects what a fresh deployment would see.
	agg, err := a.Engine.collectMetaFeatures(srv, a.Engine.Cfg.Recorder, nil)
	if err != nil {
		return false, 0, err
	}
	eng := features.NewEngineer(agg)
	if len(a.last.KeptFeatures) > 0 && maxInt(a.last.KeptFeatures) < len(eng.FeatureNames()) {
		eng.Keep = a.last.KeptFeatures
	}
	currentLoss, err = a.Engine.globalLoss(srv, eng, a.last.BestConfig, "valid")
	if err != nil {
		return false, 0, err
	}
	if currentLoss <= a.last.BestValidLoss*a.DriftRatio {
		return false, currentLoss, nil
	}
	// Drift detected: re-tune with the incumbent as an extra warm-start
	// seed so knowledge is not discarded.
	res, err := a.Engine.Run(clients)
	if err != nil {
		return false, currentLoss, err
	}
	a.last = res
	return true, currentLoss, nil
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
