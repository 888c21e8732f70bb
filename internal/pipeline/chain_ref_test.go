package pipeline

import (
	"fedforecaster/internal/features"
	"fedforecaster/internal/model"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// The single-split chain path the structure executor replaced, kept as
// TestDegenerateGraphBitIdentical's oracle: the zero structure must
// reproduce its losses bit for bit.

// BuildPhaseData engineers a client split for the given phase. The
// arithmetic is exactly the former ClientLoss preamble, factored out so
// the result can be cached and reused across candidates.
func BuildPhaseData(s *timeseries.Series, eng *features.Engineer, splits Splits, phase string) (*PhaseData, error) {
	trainEnd, validEnd := splits.Bounds(s.Len())
	if phase == "test" {
		return buildRange(s, eng, validEnd, s.Len())
	}
	return buildRange(s, eng, trainEnd, validEnd)
}

// Loss fits cfg on the phase's training rows and returns the score-row
// loss — the model-dependent tail of the former ClientLoss, so cached
// and freshly built matrices produce bit-identical losses.
func (pd *PhaseData) Loss(cfg search.Config, seed int64) (loss float64, nRows int, err error) {
	preds, err := fitPredict(pd, cfg, seed)
	if err != nil {
		return 0, 0, err
	}
	return model.MSE(preds, pd.Score.Y), pd.Score.Len(), nil
}
