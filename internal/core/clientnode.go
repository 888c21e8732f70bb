package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"fedforecaster/internal/features"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/obs"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// ClientNode is a federated participant holding one private
// time-series split. It implements fl.Client; raw observations never
// leave the node — only scalar statistics, histograms, feature
// importances, and losses, matching the paper's privacy model.
type ClientNode struct {
	series *timeseries.Series
	seed   int64
	// rec, when non-nil, receives client-side telemetry (cache
	// hits/misses, per-candidate evaluation times) tagged with id.
	rec obs.Recorder
	id  int

	// cacheMu guards cache, the round-protocol-v2 feature-matrix cache.
	cacheMu sync.Mutex
	cache   *evalCache // guarded by cacheMu
}

// evalCache is the client-side state installed by an eval/prepare
// round: the decoded engineer + splits under their server-computed
// fingerprint, plus lazily built per-phase feature matrices. A single
// slot suffices — the schema is frozen after Phase III, and a new
// fingerprint (e.g. a re-run with different feature selection)
// replaces the old entry, bounding memory to one schema.
type evalCache struct {
	fingerprint string
	eng         *features.Engineer
	splits      pipeline.Splits
	phases      map[string]*pipeline.GraphPhase
	phaseErrs   map[string]error
}

// errUnknownFingerprint marks an evaluation round whose fingerprint the
// client has no cache for (it missed the prepare round); the client
// reports need_prepare so the server can heal by re-preparing.
var errUnknownFingerprint = errors.New("core: unknown schema fingerprint")

// maxEvalWorkers bounds the per-client worker pool that evaluates a
// candidate batch. Each candidate fits an independent model on the
// shared read-only matrices; results land in per-candidate slots, so
// ordering is deterministic regardless of scheduling.
const maxEvalWorkers = 4

// NewClientNode wraps a private series split into a protocol
// participant.
func NewClientNode(s *timeseries.Series, seed int64) *ClientNode {
	return &ClientNode{series: s, seed: seed}
}

// WithObs attaches a telemetry recorder and this node's client index
// (the label on its events) and returns the node for chaining. The
// engine wires it automatically for in-process simulation; TCP client
// processes call it themselves.
func (c *ClientNode) WithObs(rec obs.Recorder, id int) *ClientNode {
	c.rec = rec
	c.id = id
	return c
}

// traceStartNS reads the request's trace marker: a traced round asks
// the client to report local span timings, so the handler records its
// start. 0 — the untraced fast path — costs one map lookup and no
// clock read.
func traceStartNS(req fl.Message) int64 {
	if _, ok := req.Strings[keyTrace]; !ok {
		return 0
	}
	return obs.NowNanos()
}

// stampLocalSpan appends one [op, start_ns, duration_ns] triple to
// the response's shipped span timings under keySpans. No-op when
// startNS is 0 (untraced round) — the response then stays
// byte-identical to a run with telemetry off.
func stampLocalSpan(resp *fl.Message, op int, startNS int64) {
	if startNS == 0 || resp.Ints == nil {
		return
	}
	resp.Ints[keySpans] = append(resp.Ints[keySpans], op, int(startNS), int(obs.NowNanos()-startNS))
}

// Properties answers the server's metadata queries, stamping its local
// span timing onto traced responses.
func (c *ClientNode) Properties(req fl.Message) (fl.Message, error) {
	startNS := traceStartNS(req)
	resp, err := c.properties(req)
	if err == nil {
		stampLocalSpan(&resp, obs.ClientOpProperties, startNS)
	}
	return resp, err
}

func (c *ClientNode) properties(req fl.Message) (fl.Message, error) {
	switch req.Kind {
	case kindRange:
		resp := fl.NewMessage(kindRange)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range c.series.Values {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if !(hi > lo) {
			lo, hi = 0, 1
		}
		resp.Scalars["lo"] = lo //lint:allow privacyflow range round: the global [lo,hi] is deliberately shared so all clients normalize meta-features on one scale (paper Section 4.2)
		resp.Scalars["hi"] = hi //lint:allow privacyflow range round: the global [lo,hi] is deliberately shared so all clients normalize meta-features on one scale (paper Section 4.2)
		resp.Scalars["size"] = float64(c.series.Len())
		return resp, nil

	case kindMetaFeatures:
		cf := metafeat.ExtractClient(c.series, req.Scalars["lo"], req.Scalars["hi"])
		resp := fl.NewMessage(kindMetaFeatures)
		encodeClientFeatures(&resp, cf)
		return resp, nil

	case kindImportances:
		eng := decodeEngineer(req)
		ds, err := eng.Build(c.series, 0)
		if err != nil {
			return fl.Message{}, err
		}
		imp, err := features.ClientImportances(ds, c.seed)
		if err != nil {
			return fl.Message{}, err
		}
		resp := fl.NewMessage(kindImportances)
		resp.Floats["importances"] = imp
		return resp, nil
	}
	return fl.Message{}, fmt.Errorf("core: unknown properties request %q", req.Kind)
}

// Fit handles the final-model round: fit the chosen configuration on
// train+valid against the cached matrices and report the held-out test
// loss (Algorithm 1 lines 23-25, with Table 3's test reporting).
func (c *ClientNode) Fit(req fl.Message) (fl.Message, error) {
	if req.Kind != kindFitFinal {
		return fl.Message{}, fmt.Errorf("core: unknown fit request %q", req.Kind)
	}
	startNS := traceStartNS(req)
	resp, err := c.evaluateBatch(req, "test")
	if err == nil {
		stampLocalSpan(&resp, obs.ClientOpFit, startNS)
	}
	return resp, err
}

// Evaluate handles optimization rounds: fit candidates on the train
// rows and report validation losses (Algorithm 1 lines 17-20). Rounds
// arrive either as eval/prepare (cache the schema) or as a
// fingerprinted eval/config batch.
func (c *ClientNode) Evaluate(req fl.Message) (fl.Message, error) {
	startNS := traceStartNS(req)
	switch req.Kind {
	case kindEvalPrepare:
		resp, err := c.prepare(req)
		if err == nil {
			stampLocalSpan(&resp, obs.ClientOpPrepare, startNS)
		}
		return resp, err
	case kindEvalConfig:
		resp, err := c.evaluateBatch(req, "valid")
		if err == nil {
			stampLocalSpan(&resp, obs.ClientOpEvaluate, startNS)
		}
		return resp, err
	}
	return fl.Message{}, fmt.Errorf("core: unknown eval request %q", req.Kind)
}

// prepare installs the frozen engineer + splits under the server's
// fingerprint. Matrices are built lazily on first use per phase, so a
// prepare round is cheap and idempotent: re-preparing an already
// cached fingerprint keeps the built matrices.
func (c *ClientNode) prepare(req fl.Message) (fl.Message, error) {
	fp := req.Strings[keyFingerprint]
	if fp == "" {
		return fl.Message{}, errors.New("core: prepare round without fingerprint")
	}
	resp := fl.NewMessage(kindEvalPrepare + "/done")
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache != nil && c.cache.fingerprint == fp {
		resp.Scalars["cached"] = 1
		return resp, nil
	}
	c.cache = &evalCache{
		fingerprint: fp,
		eng:         decodeEngineer(req),
		splits:      decodeSplits(req),
		phases:      map[string]*pipeline.GraphPhase{},
		phaseErrs:   map[string]error{},
	}
	return resp, nil
}

// phaseData returns the cached fold matrices for (fingerprint, phase),
// building them on first use. Build outcomes (including errors) are
// memoized so repeated rounds never redo the work. The GraphPhase's
// own per-fold pre-transform memo fills lazily as structure-search
// candidates visit transformed branches, all under this one
// fingerprint+phase slot.
func (c *ClientNode) phaseData(fp, phase string) (*pipeline.GraphPhase, error) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache == nil || c.cache.fingerprint != fp {
		return nil, errUnknownFingerprint
	}
	if gp, ok := c.cache.phases[phase]; ok {
		if c.rec != nil {
			c.rec.Record(obs.ClientCache{Client: c.id, Phase: phase, Hit: true})
		}
		return gp, c.cache.phaseErrs[phase]
	}
	var buildStartNS int64
	if c.rec != nil {
		buildStartNS = obs.NowNanos()
	}
	gp, err := pipeline.BuildGraphPhase(c.series, c.cache.eng, c.cache.splits, phase)
	if c.rec != nil {
		c.rec.Record(obs.ClientCache{Client: c.id, Phase: phase, Hit: false, BuildNS: obs.NowNanos() - buildStartNS})
	}
	c.cache.phases[phase] = gp
	c.cache.phaseErrs[phase] = err
	return gp, err
}

// evaluateBatch answers an evaluation round: every candidate in the
// batch is fitted against the cached matrices by a bounded worker
// pool, each with its own derived seed (evalSeed), and results are
// reported in candidate order — scheduling never reorders them. A
// request whose fingerprint is absent or not cached is answered with
// need_prepare.
func (c *ClientNode) evaluateBatch(req fl.Message, phase string) (fl.Message, error) {
	resp := fl.NewMessage(req.Kind + "/done")
	gp, err := c.phaseData(req.Strings[keyFingerprint], phase)
	if err != nil {
		switch {
		case errors.Is(err, errUnknownFingerprint):
			// This client missed the prepare round (dropped under quorum,
			// transient fault) or the request carries no fingerprint: tell
			// the server instead of failing, so it can heal with a
			// re-prepare.
			resp.Scalars["need_prepare"] = 1
			return resp, nil
		case errors.Is(err, pipeline.ErrNotEnoughData):
			// A client whose split is too small reports itself as skipped
			// rather than failing the round; the server excludes it from
			// aggregation (the paper drops sub-500-instance splits up
			// front, this is the runtime guard).
			resp.Scalars["skipped"] = 1
			return resp, nil
		}
		return fl.Message{}, err
	}
	cfgs := decodeBatch(req)
	if len(cfgs) == 0 {
		return fl.Message{}, errors.New("core: evaluation round with empty batch")
	}
	losses := make([]float64, len(cfgs))
	rows := make([]float64, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := maxEvalWorkers
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow hotalloc bounded worker pool: one closure per worker at batch start, not per candidate
		go func() {
			defer wg.Done()
			for i := range next {
				var n int
				losses[i], n, errs[i] = c.evalCandidate(gp, cfgs[i], i)
				rows[i] = float64(n)
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs { // lowest-index error wins: deterministic
		if err != nil {
			return fl.Message{}, err
		}
	}
	resp.Floats["losses"] = losses
	resp.Floats["rows"] = rows
	resp.Scalars["size"] = float64(c.series.Len())
	return resp, nil
}

// evalCandidate scores one batch candidate with its derived seed,
// reporting per-candidate evaluation time when telemetry is live (the
// nil-recorder fast path adds no timing calls).
func (c *ClientNode) evalCandidate(gp *pipeline.GraphPhase, cfg search.Config, i int) (float64, int, error) {
	if c.rec == nil {
		return gp.Loss(cfg, evalSeed(c.seed, i))
	}
	startNS := obs.NowNanos()
	loss, n, err := gp.Loss(cfg, evalSeed(c.seed, i))
	c.rec.Record(obs.CandidateEval{Client: c.id, Index: i, EvalNS: obs.NowNanos() - startNS, Loss: loss})
	return loss, n, err
}
