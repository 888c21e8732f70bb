package pipeline

import (
	"math"
	"sync"

	"fedforecaster/internal/features"
	"fedforecaster/internal/model"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// armSeedGamma mirrors the engine's per-candidate seed derivation so a
// fixed secondary arm draws a stream decorrelated from the candidate's
// without any extra negotiated state.
const armSeedGamma = 0x9e3779b97f4a7c15

// armSeed derives the seed of regressor arm k from the candidate seed;
// arm 0 — the candidate itself — keeps the seed bit-for-bit.
func armSeed(base int64, arm int) int64 {
	return base ^ int64(uint64(arm)*armSeedGamma)
}

// GraphPhase is one client's cached evaluation state for a phase
// ("valid" or "test"): the rolling-origin folds of its split, each
// holding the eagerly built chain embedding (buildRange over the
// fold's bounds) plus a lazily filled per-fold memo of transformed
// embeddings keyed by pre-transform name. It is the unit
// round-protocol-v2's ClientNode caches per fingerprint+phase;
// evaluations only read the cached matrices (or extend the memo under
// its fold lock), so one GraphPhase serves concurrent candidate
// evaluations.
type GraphPhase struct {
	series *timeseries.Series
	eng    *features.Engineer
	folds  []*foldPhase
}

// foldPhase holds one fold's materialized matrices.
type foldPhase struct {
	fold Fold
	base *PhaseData // chain matrices, built eagerly

	mu    sync.Mutex
	raw   []float64            // interpolated target channel; guarded by mu
	built map[string]builtData // transformed embeddings by pre-transform name; guarded by mu
}

// builtData is one memoized pre-transform build, failures included.
type builtData struct {
	pd  *PhaseData
	err error
}

// BuildGraphPhase engineers a client split for the given phase across
// its evaluation folds. The "test" phase is always the single
// train+valid → test split (Table 3's protocol is never cross-
// validated); the "valid" phase follows Splits.Folds. Folds too small
// to produce evaluation rows are dropped; if none survive the first
// build error is returned, so a single split fails exactly as its one
// buildRange does.
func BuildGraphPhase(s *timeseries.Series, eng *features.Engineer, splits Splits, phase string) (*GraphPhase, error) {
	n := s.Len()
	var folds []Fold
	if phase == "test" {
		_, validEnd := splits.Bounds(n)
		folds = []Fold{{FitEnd: validEnd, ScoreEnd: n}}
	} else {
		folds = splits.Folds(n)
	}
	gp := &GraphPhase{series: s, eng: eng, folds: make([]*foldPhase, 0, len(folds))}
	var firstErr error
	for _, f := range folds {
		pd, err := buildRange(s, eng, f.FitEnd, f.ScoreEnd)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		//lint:allow hotalloc phase construction runs once per fingerprint+phase and is cached by ClientNode; candidate evaluations only read it
		gp.folds = append(gp.folds, &foldPhase{fold: f, base: pd, built: map[string]builtData{}})
	}
	if len(gp.folds) == 0 {
		return nil, firstErr
	}
	return gp, nil
}

// Loss evaluates the pipeline structure encoded by cfg's structure
// categoricals on every fold and returns the rows-weighted mean loss
// and the total scored rows. With a single fold and the chain this is
// exactly the fit-and-score of one PhaseData — the float path is
// shared, so the pre-graph arithmetic is preserved bit-for-bit
// (TestDegenerateGraphBitIdentical pins it against the chain oracle in
// chain_ref_test.go).
func (gp *GraphPhase) Loss(cfg search.Config, seed int64) (loss float64, nRows int, err error) {
	st, err := structureOf(cfg)
	if err != nil {
		return 0, 0, err
	}
	if len(gp.folds) == 1 {
		return gp.folds[0].loss(gp, st, cfg, seed)
	}
	var sum, weight float64
	total := 0
	for _, f := range gp.folds {
		l, n, err := f.loss(gp, st, cfg, seed)
		if err != nil {
			return 0, 0, err
		}
		sum += float64(l * float64(n))
		weight += float64(n)
		total += n
	}
	if weight == 0 {
		return 0, 0, ErrNotEnoughData
	}
	return sum / weight, total, nil
}

// loss evaluates one fold: resolve the structure's matrices (memoized
// per pre-transform), fit the candidate — and the fixed second arm,
// when there is one — and score against the raw targets.
func (f *foldPhase) loss(gp *GraphPhase, st structure, cfg search.Config, seed int64) (float64, int, error) {
	pd, err := f.data(gp, st.pre)
	if err != nil {
		return 0, 0, err
	}
	var preds []float64
	if st.arm2 == "" {
		preds, err = fitPredict(pd, cfg, seed)
	} else {
		preds, err = fitMerged(pd, st.arm2, cfg, seed)
	}
	if err != nil {
		return 0, 0, err
	}
	y := pd.Score.Y
	return model.MSE(preds, y), len(y), nil
}

// fitMerged fits the candidate and the fixed second arm concurrently
// against the same read-only matrices and averages their predictions
// elementwise in arm order. The candidate's error wins over the arm's,
// so neither the result nor the error depends on scheduling.
func fitMerged(pd *PhaseData, arm2 string, cfg search.Config, seed int64) ([]float64, error) {
	armCfg, _ := search.ArmConfig(arm2) // existence checked by structureOf
	var armPreds []float64
	var armErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		armPreds, armErr = fitPredict(pd, armCfg, armSeed(seed, 1))
	}()
	preds, err := fitPredict(pd, cfg, seed)
	<-done
	if err != nil {
		return nil, err
	}
	if armErr != nil {
		return nil, armErr
	}
	return meanMerge(preds, armPreds), nil
}

// data resolves the matrices the arms read. The raw channel's
// embedding is the eagerly built base and bypasses the lock entirely,
// keeping the chain-only path contention-free; a pre-transformed
// embedding is built once per fold and memoized, failures included.
func (f *foldPhase) data(gp *GraphPhase, pre string) (*PhaseData, error) {
	if pre == "" {
		return f.base, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if b, ok := f.built[pre]; ok {
		return b.pd, b.err
	}
	pd, err := f.buildLocked(gp, pre)
	f.built[pre] = builtData{pd, err}
	return pd, err
}

// buildLocked materializes a pre-transformed branch: transform the
// interpolated target channel, rebuild the engineer's embedding on it
// (without exogenous columns or the frozen selection), restore the raw
// targets, then append the exogenous columns and reapply the selection
// so the branch presents the chain's full schema.
func (f *foldPhase) buildLocked(gp *GraphPhase, pre string) (*PhaseData, error) {
	if f.raw == nil {
		f.raw = gp.series.Interpolate().Values
	}
	engT := *gp.eng
	engT.ExogNames = nil
	engT.Keep = nil
	ts := &timeseries.Series{Name: gp.series.Name, Values: preTransforms[pre](f.raw), Rate: gp.series.Rate, Start: gp.series.Start}
	ds, err := engT.Build(ts, f.fold.FitEnd)
	if err != nil {
		return nil, err
	}
	off := gp.eng.MaxLag()
	// Targets stay the raw next value: transforms change what a branch
	// sees, never what it predicts — arms must merge in target units.
	for i := range ds.Y {
		ds.Y[i] = f.raw[off+i]
	}
	ds = joinExog(ds, gp.series, gp.eng.ExogNames, off)
	if gp.eng.Keep != nil {
		ds = ds.SelectColumns(gp.eng.Keep)
	}
	return splitRange(ds, off, f.fold.FitEnd, f.fold.ScoreEnd)
}

// joinExog appends the engineer's lag-1 exogenous columns to a
// transformed-branch dataset, mirroring features.Build's raw-channel
// treatment (lag-1 alignment, NaN → 0) so column values match the
// degenerate schema exactly.
func joinExog(ds *model.Dataset, s *timeseries.Series, names []string, off int) *model.Dataset {
	if len(names) == 0 {
		return ds
	}
	w := len(ds.Names)
	wide := w + len(names)
	outNames := make([]string, 0, wide)
	outNames = append(outNames, ds.Names...)
	for _, ex := range names {
		outNames = append(outNames, "exog_"+ex)
	}
	n := len(ds.X)
	x := make([][]float64, n)
	backing := make([]float64, n*wide)
	for i := 0; i < n; i++ {
		row := backing[i*wide : i*wide : (i+1)*wide]
		row = append(row, ds.X[i]...)
		t := off + i
		for _, ex := range names {
			var val float64
			if ch, ok := s.Exog[ex]; ok && t-1 >= 0 && t-1 < len(ch) {
				val = ch[t-1]
				if math.IsNaN(val) {
					val = 0
				}
			}
			row = append(row, val)
		}
		x[i] = row
	}
	return &model.Dataset{X: x, Y: ds.Y, Names: outNames}
}

// meanMerge averages arm predictions elementwise in arm order, a
// deterministic combination rule.
func meanMerge(preds ...[]float64) []float64 {
	out := make([]float64, len(preds[0]))
	inv := 1 / float64(len(preds))
	for i := range out {
		var s float64
		for _, p := range preds {
			s += p[i]
		}
		out[i] = s * inv
	}
	return out
}
