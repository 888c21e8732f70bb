package pipeline

import (
	"fmt"
	"math"
	"sync"

	"fedforecaster/internal/features"
	"fedforecaster/internal/model"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
	"fedforecaster/internal/tsa"
)

// armSeedGamma mirrors the engine's per-candidate seed derivation so a
// fixed secondary arm draws a stream decorrelated from the candidate's
// without any extra negotiated state.
const armSeedGamma = 0x9e3779b97f4a7c15

// armSeed derives the seed of regressor arm k from the candidate seed;
// arm 0 — the candidate itself — keeps the seed bit-for-bit.
func armSeed(base int64, arm int) int64 {
	if arm == 0 {
		return base
	}
	return base ^ int64(uint64(arm)*armSeedGamma)
}

// GraphPhase is one client's cached evaluation state for a phase
// ("valid" or "test"): the rolling-origin folds of its split, each
// holding the eagerly built degenerate embedding (buildRange over the
// fold's bounds) plus a lazily filled per-node cache of transformed
// embeddings keyed by node spec. It is the unit round-protocol-v2's
// ClientNode caches per fingerprint+phase; evaluations only read the
// cached matrices (or extend the cache under its fold lock), so one
// GraphPhase serves concurrent candidate evaluations.
type GraphPhase struct {
	series *timeseries.Series
	eng    *features.Engineer
	folds  []*foldPhase
}

// foldPhase holds one fold's materialized node outputs.
type foldPhase struct {
	fold Fold
	base *PhaseData // degenerate-chain matrices, built eagerly

	mu    sync.Mutex
	raw   []float64             // interpolated target channel; guarded by mu
	built map[string]*PhaseData // transformed embeddings by node spec; guarded by mu
	errs  map[string]error      // memoized build failures; guarded by mu
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
		gp.folds = append(gp.folds, &foldPhase{fold: f, base: pd, built: map[string]*PhaseData{}, errs: map[string]error{}})
	}
	if len(gp.folds) == 0 {
		return nil, firstErr
	}
	return gp, nil
}

// Loss evaluates the pipeline graph encoded by cfg's structure
// categoricals on every fold and returns the rows-weighted mean loss
// and the total scored rows. With a single fold and the degenerate
// chain this is exactly the fit-and-score of one PhaseData — the float
// path is shared, so the pre-graph arithmetic is preserved bit-for-bit
// (TestDegenerateGraphBitIdentical pins it against the chain oracle in
// chain_ref_test.go).
func (gp *GraphPhase) Loss(cfg search.Config, seed int64) (loss float64, nRows int, err error) {
	g, err := StructureOf(cfg)
	if err != nil {
		return 0, 0, err
	}
	return gp.graphLoss(g, cfg, seed)
}

func (gp *GraphPhase) graphLoss(g *Graph, cfg search.Config, seed int64) (float64, int, error) {
	if len(gp.folds) == 1 {
		return gp.folds[0].loss(gp, g, cfg, seed)
	}
	var sum, weight float64
	total := 0
	for _, f := range gp.folds {
		l, n, err := f.loss(gp, g, cfg, seed)
		if err != nil {
			return 0, 0, err
		}
		sum += l * float64(n)
		weight += float64(n)
		total += n
	}
	if weight == 0 {
		return 0, 0, ErrNotEnoughData
	}
	return sum / weight, total, nil
}

// loss runs the executor over one fold: resolve each regressor arm's
// input matrices (cached per node spec), fit the independent arms —
// in parallel when the graph branches — merge predictions in arm
// order, and score against the shared targets.
func (f *foldPhase) loss(gp *GraphPhase, g *Graph, cfg search.Config, seed int64) (float64, int, error) {
	arms := g.regressArms()
	if len(arms) == 0 {
		return 0, 0, fmt.Errorf("pipeline: graph %s has no regressor", g.Spec())
	}
	data := make([]*PhaseData, len(arms))
	for j, idx := range arms {
		pd, err := f.nodeData(gp, g, g.index(g.Nodes[idx].Inputs[0]))
		if err != nil {
			return 0, 0, err
		}
		data[j] = pd
	}
	evalArm := func(j int) ([]float64, error) {
		n := &g.Nodes[arms[j]]
		c := cfg
		if n.Arm > 0 {
			c, _ = search.ArmConfig(n.Algo) // existence checked by TemplateGraph
		}
		return fitPredict(data[j], c, armSeed(seed, n.Arm))
	}
	preds := make([][]float64, len(arms))
	errs := make([]error, len(arms))
	if len(arms) == 1 {
		preds[0], errs[0] = evalArm(0)
	} else {
		// Independent branches: every arm fits its own model against
		// shared read-only matrices; per-arm slots keep the result
		// order deterministic regardless of scheduling.
		var wg sync.WaitGroup
		for j := range arms {
			wg.Add(1)
			//lint:allow hotalloc one goroutine closure per branched arm, dwarfed by the model fit it launches
			go func(j int) {
				defer wg.Done()
				preds[j], errs[j] = evalArm(j)
			}(j)
		}
		wg.Wait()
	}
	for _, err := range errs { // lowest-index error wins: deterministic
		if err != nil {
			return 0, 0, err
		}
	}
	out := preds[0]
	if len(arms) > 1 {
		out = meanMerge(preds)
	}
	y := data[0].Score.Y
	return model.MSE(out, y), len(y), nil
}

// nodeData resolves the output matrices of a data node (lag-embed or
// exog-join), memoized per fold. The degenerate chain — an embedding
// of the raw source — is the eagerly built base and bypasses the lock
// entirely, keeping the chain-only fast path contention-free.
func (f *foldPhase) nodeData(gp *GraphPhase, g *Graph, idx int) (*PhaseData, error) {
	spec := g.specOf(idx)
	if spec == specBase {
		return f.base, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if pd, ok := f.built[spec]; ok {
		return pd, f.errs[spec]
	}
	pd, err := f.buildDataLocked(gp, g, idx)
	f.built[spec] = pd
	f.errs[spec] = err
	return pd, err
}

// buildDataLocked materializes a transformed branch: run the series
// transforms, rebuild the engineer's embedding on the derived channel
// (without exogenous columns or the frozen selection), restore the raw
// targets, then — for exog-join nodes — append the exogenous columns
// and reapply the selection so the branch presents the full schema.
func (f *foldPhase) buildDataLocked(gp *GraphPhase, g *Graph, idx int) (*PhaseData, error) {
	n := &g.Nodes[idx]
	embedIdx := idx
	join := false
	if n.Kind == NodeExogJoin {
		join = true
		embedIdx = g.index(n.Inputs[0])
	}
	en := &g.Nodes[embedIdx]
	if en.Kind != NodeLagEmbed {
		return nil, fmt.Errorf("pipeline: node %q is not a data node", n.ID)
	}
	vals, err := f.seriesLocked(gp, g, g.index(en.Inputs[0]))
	if err != nil {
		return nil, err
	}
	engT := *gp.eng
	engT.ExogNames = nil
	engT.Keep = nil
	ts := &timeseries.Series{Name: gp.series.Name, Values: vals, Rate: gp.series.Rate, Start: gp.series.Start}
	ds, err := engT.Build(ts, f.fold.FitEnd)
	if err != nil {
		return nil, err
	}
	off := gp.eng.MaxLag()
	// Targets stay the raw next value: transforms change what a branch
	// sees, never what it predicts — arms must merge in target units.
	raw := f.rawLocked(gp)
	for i := range ds.Y {
		ds.Y[i] = raw[off+i]
	}
	if join {
		ds = joinExog(ds, gp.series, gp.eng.ExogNames, off)
		if gp.eng.Keep != nil {
			ds = ds.SelectColumns(gp.eng.Keep)
		}
	}
	return splitRange(ds, off, f.fold.FitEnd, f.fold.ScoreEnd)
}

// seriesLocked materializes the series channel produced by a source or
// transform node. Transforms are trailing/padded so every output index
// depends only on inputs at or before it — rebuilt embeddings keep the
// no-look-ahead contract of the raw build.
func (f *foldPhase) seriesLocked(gp *GraphPhase, g *Graph, idx int) ([]float64, error) {
	n := &g.Nodes[idx]
	switch n.Kind {
	case NodeSource:
		return f.rawLocked(gp), nil
	case NodeSmooth:
		in, err := f.seriesLocked(gp, g, g.index(n.Inputs[0]))
		if err != nil {
			return nil, err
		}
		return tsa.TrailingMovingAverage(in, n.Window), nil
	case NodeDiff:
		in, err := f.seriesLocked(gp, g, g.index(n.Inputs[0]))
		if err != nil {
			return nil, err
		}
		return paddedDifference(in, n.Order), nil
	}
	return nil, fmt.Errorf("pipeline: node %q is not a series node", n.ID)
}

// rawLocked caches the interpolated target channel for transform
// inputs and target restoration; the degenerate path never needs it.
func (f *foldPhase) rawLocked(gp *GraphPhase) []float64 {
	if f.raw == nil {
		f.raw = gp.series.Interpolate().Values
	}
	return f.raw
}

// paddedDifference is tsa.Difference front-padded with zeros so the
// output keeps the input's length and row alignment; out[i] is the
// order-d difference ending at xs[i] (zero while i < d).
func paddedDifference(xs []float64, d int) []float64 {
	diff := tsa.Difference(xs, d)
	out := make([]float64, len(xs))
	copy(out[len(xs)-len(diff):], diff)
	return out
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

// meanMerge averages arm predictions elementwise in arm order — the
// merge node's deterministic combination rule.
func meanMerge(preds [][]float64) []float64 {
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
