package core

import (
	"errors"
	"slices"

	"fedforecaster/internal/obs"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// AdaptiveRunner implements the paper's "dynamic model adaptation"
// future-work direction: it watches the deployed configuration's
// global loss on fresh data and, when the loss degrades beyond a
// tolerance, re-runs the whole optimization from scratch and deploys
// its result.
type AdaptiveRunner struct {
	Engine *Engine
	// DriftRatio is the re-tune trigger: current loss must exceed
	// DriftRatio × the loss at deployment time (default 1.5).
	DriftRatio float64

	last *Result
	// runs counts the engine runs this runner has driven. Each run's
	// ordinal seeds its span identity, so the runs of one runner (which
	// share the seed's trace ID) never reuse each other's span IDs.
	runs int
}

// spanDriftCheck names the run span of a drift check.
const spanDriftCheck = "drift-check"

// NewAdaptiveRunner wraps an engine for drift-aware operation.
func NewAdaptiveRunner(engine *Engine, driftRatio float64) *AdaptiveRunner {
	if driftRatio <= 1 {
		driftRatio = 1.5
	}
	return &AdaptiveRunner{Engine: engine, DriftRatio: driftRatio}
}

// run drives one in-process engine run under the runner's next
// ordinal.
func (a *AdaptiveRunner) run(clients []*timeseries.Series, name string, phases []enginePhase) (*Result, error) {
	a.runs++
	return a.Engine.runInProc(clients, name, a.runs-1, phases)
}

// Deploy runs the full pipeline once and records the deployed result.
func (a *AdaptiveRunner) Deploy(clients []*timeseries.Series) (*Result, error) {
	res, err := a.run(clients, obs.SpanRun, enginePhases())
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
// DriftRatio × the deployed loss, the engine runs Algorithm 1 again
// from scratch, as Deploy does, and its result replaces the
// deployment. It reports whether a re-tune happened and the loss that
// triggered the decision.
func (a *AdaptiveRunner) Check(clients []*timeseries.Series) (retuned bool, currentLoss float64, err error) {
	if a.last == nil {
		return false, 0, ErrNotDeployed
	}
	check, err := a.driftCheck(clients)
	if err != nil {
		return false, 0, err
	}
	currentLoss = check.BestValidLoss
	if currentLoss <= a.last.BestValidLoss*a.DriftRatio {
		return false, currentLoss, nil
	}
	res, err := a.run(clients, obs.SpanRun, enginePhases())
	if err != nil {
		return false, currentLoss, err
	}
	a.last = res
	return true, currentLoss, nil
}

// driftCheck runs the drift check as an engine run of two phases:
// Phase I on the current data, then one batched evaluation round of
// the deployed configuration. The run's result carries that
// configuration as BestConfig and its current global validation loss
// as BestValidLoss.
func (a *AdaptiveRunner) driftCheck(clients []*timeseries.Series) (*Result, error) {
	deployed := a.last
	drift := enginePhase{"drift", func(rc *roundContext) error {
		// Rebuild the feature schema on the *current* data so the check
		// reflects what a fresh deployment would see.
		eng := rc.schema()
		if len(deployed.KeptFeatures) > 0 && slices.Max(deployed.KeptFeatures) < len(eng.FeatureNames()) {
			eng.Keep = deployed.KeptFeatures
		}
		rc.engineer = eng
		if err := rc.prepareEval(); err != nil {
			return err
		}
		losses, err := rc.evalConfigs([]search.Config{deployed.BestConfig}, kindEvalConfig)
		if err != nil {
			return err
		}
		rc.result.BestConfig = deployed.BestConfig
		rc.result.BestValidLoss = losses[0]
		return nil
	}}
	return a.run(clients, spanDriftCheck, []enginePhase{phaseMetaFeatures, drift})
}
