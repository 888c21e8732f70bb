// Package pipeline contains the per-client training/evaluation path
// shared by the engine, the baselines, and knowledge-base
// construction: engineer features for a client split, fit a candidate
// configuration on the training rows, score it on the validation (or
// test) rows, and aggregate client losses into the weighted global
// loss of Equation 1.
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"fedforecaster/internal/features"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/linmodel"
	"fedforecaster/internal/model"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// Splits are the chronological data fractions used by the harness:
// optimization fits on Train and scores on Valid; the final model fits
// on Train+Valid and reports Test MSE (Table 3's "test MSE").
type Splits struct {
	ValidFrac float64 // default 0.15
	TestFrac  float64 // default 0.15

	// CVFolds, when > 1, evaluates "valid"-phase candidates with
	// rolling-origin cross-validation over the validation span (see
	// Folds) instead of the single train/valid split. 0 or 1 keeps the
	// paper's single-split protocol byte-for-byte. The "test" phase is
	// never cross-validated.
	CVFolds int
	// ValidationBlocks sets how many contiguous blocks make up each CV
	// fold's scoring window (≥ 1; meaningful only when CVFolds > 1).
	ValidationBlocks int
}

func (s Splits) normalized() Splits {
	if s.ValidFrac <= 0 || s.ValidFrac >= 0.5 {
		s.ValidFrac = 0.15
	}
	if s.TestFrac <= 0 || s.TestFrac >= 0.5 {
		s.TestFrac = 0.15
	}
	return s
}

// Bounds returns the row indices (trainEnd, validEnd) splitting a
// series of length n into train / valid / test.
func (s Splits) Bounds(n int) (trainEnd, validEnd int) {
	s = s.normalized()
	testN := int(math.Round(float64(n) * s.TestFrac))
	validN := int(math.Round(float64(n) * s.ValidFrac))
	validEnd = n - testN
	trainEnd = validEnd - validN
	if trainEnd < 1 {
		trainEnd = 1
	}
	if validEnd <= trainEnd {
		validEnd = trainEnd + 1
	}
	if validEnd > n {
		validEnd = n
	}
	return trainEnd, validEnd
}

// ErrNotEnoughData is returned when a client split cannot produce the
// requested evaluation rows.
var ErrNotEnoughData = errors.New("pipeline: not enough data in client split")

// PhaseData is one client's engineered matrices for an evaluation
// phase ("valid" for optimization rounds, "test" for the final fit):
// the training rows a candidate fits on and the scored rows. Building
// it is the expensive part of a federated evaluation (trend fit +
// matrix construction); round protocol v2 builds it once per schema
// fingerprint and evaluates whole candidate batches against the cached
// copy. Fitting never mutates the matrices (models that standardize
// copy via their scaler), so one PhaseData may serve concurrent
// evaluations.
//
// design is the linear models' state of the training rows (scaler,
// centred target, standardized rows and their Gram), built by the
// first linear candidate that fits here and then shared, read-only, by
// every later and concurrent one: it lives as long as the PhaseData,
// which ClientNode caches for the run (DESIGN.md "One design per
// phase").
type PhaseData struct {
	Train *model.Dataset
	Score *model.Dataset

	design *linmodel.Design
}

// buildRange engineers one fit/score window: the trend model fits on
// rows [0, fitEnd) only (no look-ahead), candidates train on the same
// rows and score on [fitEnd, scoreEnd), for any rolling-origin bounds.
func buildRange(s *timeseries.Series, eng *features.Engineer, fitEnd, scoreEnd int) (*PhaseData, error) {
	ds, err := eng.Build(s, fitEnd)
	if err != nil {
		return nil, err
	}
	return splitRange(ds, eng.MaxLag(), fitEnd, scoreEnd)
}

// splitRange cuts a built dataset into fit and score rows for the
// window [fitEnd, scoreEnd), shared by the raw build and by
// transformed-branch rebuilds so every branch applies one arithmetic.
func splitRange(ds *model.Dataset, off, fitEnd, scoreEnd int) (*PhaseData, error) {
	fitRows := fitEnd - off
	scoreEndRows := scoreEnd - off
	if fitRows < 4 || scoreEndRows <= fitRows {
		return nil, ErrNotEnoughData
	}
	train, rest := ds.Split(fitRows)
	scoreRows := scoreEndRows - fitRows
	if scoreRows > rest.Len() {
		scoreRows = rest.Len()
	}
	score := &model.Dataset{X: rest.X[:scoreRows], Y: rest.Y[:scoreRows], Names: rest.Names}
	return &PhaseData{Train: train, Score: score, design: linmodel.NewDesign(train.X, train.Y)}, nil
}

// designFitter is a linear regressor that fits on a shared
// linmodel.Design.
type designFitter interface {
	FitDesign(*linmodel.Design) error
}

// fitPredict is the regressor evaluation shared by the chain and both
// arms of a branched structure: fit cfg on the window's training rows
// and return raw score-row predictions (fitMerged averages two arms'
// before the MSE). A linear candidate fits through the phase's shared
// design, with the bits of a fit on the rows.
func fitPredict(pd *PhaseData, cfg search.Config, seed int64) ([]float64, error) {
	m, err := search.Instantiate(cfg, seed)
	if err != nil {
		return nil, err
	}
	if df, ok := m.(designFitter); ok {
		err = df.FitDesign(pd.design)
	} else {
		err = m.Fit(pd.Train.X, pd.Train.Y)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: fitting %s: %w", cfg.Algorithm, err)
	}
	return m.Predict(pd.Score.X), nil
}

// ClientLoss fits cfg on one client's training rows and returns the
// loss on the requested segment. phase selects the scored rows:
// "valid" (optimization) or "test" (final reporting; the model then
// trains on train+valid). It is BuildGraphPhase + Loss — the universal
// entry point that honours cfg's structure categoricals and the
// splits' rolling-origin CV settings, degenerating bit-identically to
// one split's fit-and-score for chain configs on a single split. Callers that evaluate many configurations against one
// schema should build the GraphPhase once instead.
func ClientLoss(s *timeseries.Series, eng *features.Engineer, cfg search.Config,
	splits Splits, phase string, seed int64) (loss float64, nRows int, err error) {
	gp, err := BuildGraphPhase(s, eng, splits, phase)
	if err != nil {
		return 0, 0, err
	}
	return gp.Loss(cfg, seed)
}

// GlobalLoss evaluates cfg across all client splits and aggregates the
// losses weighted by client sizes (Equation 1). Clients whose splits
// are too small are skipped; if every client is skipped the joined
// per-client errors (each naming its client index) are returned so
// multi-client failures stay diagnosable.
func GlobalLoss(clients []*timeseries.Series, eng *features.Engineer, cfg search.Config,
	splits Splits, phase string, seed int64) (float64, error) {
	var losses, sizes []float64
	var errs []error
	for i, s := range clients {
		loss, _, err := ClientLoss(s, eng, cfg, splits, phase, seed+int64(i))
		if err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", i, err))
			continue
		}
		losses = append(losses, loss)
		sizes = append(sizes, float64(s.Len()))
	}
	if len(losses) == 0 {
		if len(errs) > 0 {
			return 0, errors.Join(errs...)
		}
		return 0, ErrNotEnoughData
	}
	return fl.WeightedLoss(losses, sizes)
}
