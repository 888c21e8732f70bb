package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"time"

	"fedforecaster/internal/bayesopt"
	"fedforecaster/internal/features"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/metalearn"
	"fedforecaster/internal/obs"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// EngineConfig controls one FedForecaster run.
type EngineConfig struct {
	// TopK recommended algorithms forming the restricted search space
	// A' (paper: K = 3). Ignored when no meta-model is set.
	TopK int
	// Iterations is the optimization budget in configuration
	// evaluations. With BatchSize q each federated round evaluates up
	// to q configurations, so the round count is ⌈Iterations/q⌉. The
	// paper uses a wall-clock budget; TimeBudget may additionally cap
	// runtime.
	Iterations int
	// BatchSize is the number of candidate configurations evaluated per
	// federated round (q). 1 — the default — preserves the paper's
	// sequential Algorithm 1 bit for bit; larger batches propose with
	// the constant-liar q-EI heuristic and cut the evaluation round
	// count (and per-round protocol overhead) by ~q×.
	BatchSize int
	// TimeBudget, when positive, stops optimization when exhausted
	// even if Iterations remain (T in Algorithm 1).
	TimeBudget time.Duration
	// Splits are the chronological train/valid/test fractions.
	Splits pipeline.Splits
	// Seed drives all stochastic components.
	Seed int64
	// FeatureSelection toggles the federated RF importance selection
	// (ablation: on in the paper).
	FeatureSelection bool
	// WarmStart toggles seeding BO with the recommended algorithms'
	// default configurations (ablation: on in the paper).
	WarmStart bool
	// UseBayesOpt toggles the GP surrogate; false degrades proposals to
	// uniform random sampling over the restricted space (ablation).
	UseBayesOpt bool
	// Spaces overrides the Table 2 search space (nil = default).
	Spaces []search.Space
	// StructureSearch widens every search space with the pipeline-graph
	// structure categoricals (search.WithStructure): BO then proposes
	// the pre-transform and second-arm shape alongside hyper-parameters,
	// and clients evaluate the encoded graph against their cached fold
	// matrices. Off (the default) keeps the paper's fixed chain.
	StructureSearch bool
	// ExogChannels names exogenous series channels every client carries
	// (multivariate extension); their lag-1 values join the feature
	// schema.
	ExogChannels []string
	// CallTimeout bounds each attempt of a client call in every
	// protocol round (0 = wait forever). On the TCP transport it is the
	// socket deadline: a hung client stalls only its first timed-out
	// attempt, which drops its connection, and later rounds skip it at
	// once as dead.
	CallTimeout time.Duration
	// MaxRetries is the number of additional attempts per failed client
	// call (transient faults are retried with exponential backoff +
	// jitter; dead clients fail fast).
	MaxRetries int
	// Wire selects the wire format Run's in-process transport speaks
	// (see fl.ParseWireOpts for the flag syntax). Every message
	// round-trips through the binary codec, so Result.Comms reports
	// exact frame bytes and any configured quantization tier is really
	// applied to the payloads. The zero value is lossless v1.
	Wire fl.WireOpts
	// MinClientFraction ∈ (0, 1] enables partial participation: a round
	// succeeds when at least ⌈fraction·N⌉ clients respond, and every
	// aggregation (meta-features, importances, Equation 1 losses) runs
	// over the survivors only. 0 (the default) keeps the paper's
	// full-participation semantics: any client failing its call — after
	// retries — aborts the run.
	MinClientFraction float64
	// Recorder receives the typed telemetry stream (run, phase, round,
	// call and attempt spans, client drops, BO iterations, client cache
	// and candidate-eval records) when non-nil. Nil disables telemetry
	// with zero allocation at every instrumentation site.
	Recorder obs.Recorder
}

// DefaultEngineConfig mirrors the paper's setup: K=3, warm start,
// Bayesian optimization and feature selection on, one candidate per
// round.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		TopK:             3,
		Iterations:       24,
		BatchSize:        1,
		Splits:           pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15},
		FeatureSelection: true,
		WarmStart:        true,
		UseBayesOpt:      true,
	}
}

// IterationRecord is one optimization step of the run history.
type IterationRecord struct {
	Config     search.Config
	GlobalLoss float64
	Elapsed    time.Duration
}

// Result is the outcome of a FedForecaster run.
type Result struct {
	BestConfig     search.Config
	BestValidLoss  float64
	TestMSE        float64
	Iterations     int
	History        []IterationRecord
	Recommended    []string
	KeptFeatures   []int
	NumFeatures    int
	AggregatedMeta metafeat.Aggregated
	// EvalRounds is the number of federated evaluation rounds the
	// optimization phase drove (≈ ⌈Iterations/BatchSize⌉) — the number
	// the batched protocol exists to shrink.
	EvalRounds int
	// Comms is the run's communication accounting (rounds, successful
	// client calls, estimated payload bytes both ways), scoped to this
	// run even on a reused server.
	Comms fl.Stats
}

// Engine is the FedForecaster server-side orchestrator.
type Engine struct {
	Meta *metalearn.MetaModel // nil disables meta-learning (cold start)
	Cfg  EngineConfig

	// jitter is the seeded backoff-jitter stream shared by every retry
	// of every round, derived from Cfg.Seed so fault-injection runs
	// replay identically. Nil (zero-value Engine) disables jitter.
	jitter *fl.Jitter
}

// NewEngine returns an engine with the given meta-model (may be nil)
// and configuration.
func NewEngine(meta *metalearn.MetaModel, cfg EngineConfig) *Engine {
	if cfg.TopK <= 0 {
		cfg.TopK = 3
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 24
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	return &Engine{Meta: meta, Cfg: cfg, jitter: fl.NewJitter(cfg.Seed + 13)}
}

// Run executes Algorithm 1 against a fresh in-process federation
// built from the given private splits.
func (e *Engine) Run(clients []*timeseries.Series) (*Result, error) {
	nodes := make([]fl.Client, len(clients))
	for i, s := range clients {
		node := NewClientNode(s, e.Cfg.Seed+int64(i)*101)
		if e.Cfg.Recorder != nil {
			// In-process simulation: client-side cache and candidate-eval
			// telemetry joins the same stream (TCP clients wire their own
			// recorder via ClientNode.WithObs).
			node = node.WithObs(e.Cfg.Recorder, i)
		}
		nodes[i] = node
	}
	srv := fl.NewServer(fl.NewInProcWire(nodes, e.Cfg.Wire))
	defer srv.Close()
	return e.runPhases(context.Background(), srv)
}

// roundContext is the state one run's phases share: the engine and its
// server, the trace sink, the evolving search space and feature
// schema, the quorum policy (via broadcast), and the result
// being assembled. Each phase reads what earlier phases wrote, which
// makes the dataflow between Figure 1's stages explicit and lets every
// phase be driven (and unit-tested) in isolation.
type roundContext struct {
	engine *Engine
	srv    *fl.Server
	// rec is the run's telemetry recorder (nil when off), read from the
	// config at run start so tests may install Cfg.Recorder after
	// NewEngine.
	rec   obs.Recorder
	start time.Time
	// startNS is the run span's start; captured through obs.NowNanos,
	// the walltime-allowlisted telemetry clock.
	startNS int64

	// statsBase scopes communication accounting to this run: the server
	// may have driven earlier rounds (TCP deployments reuse servers).
	statsBase fl.Stats

	// tracer is the run's causal-trace position (nil when telemetry is
	// off, so the nil-recorder path allocates and computes nothing).
	tracer *roundTracer

	agg         metafeat.Aggregated // phase I output
	spaces      []search.Space      // phase II output (restricted space A')
	engineer    *features.Engineer  // phase III-a output (frozen schema)
	fingerprint string              // content address of engineer+splits
	result      *Result
}

// roundTracer tracks where a run currently sits in its causal span
// hierarchy: the trace identity (derived from the seed, so two runs at
// one seed share one trace ID), the open run and phase spans, and the
// per-run round sequence counter. Every span ID is position-derived
// (obs.DeriveSpan), so identity — and with it the reconstructed tree
// shape — is a pure function of the run's decisions, never of event
// emission order. Rounds within a run are driven sequentially from one
// goroutine, so seq needs no locking.
type roundTracer struct {
	trace     uint64
	runSpan   uint64
	phaseSpan uint64
	seq       int // next round's per-run sequence number
}

// enginePhase is one explicitly named stage of a run. Algorithm 1 is
// the ordered composition of the five phases in enginePhases; each is
// a plain function over the shared roundContext.
type enginePhase struct {
	name string
	run  func(*roundContext) error
}

// enginePhases are the five phases of a run, in execution order
// (Figure 1's I-IV with Phase III split into its two halves).
var enginePhases = []enginePhase{
	{"meta-features", runPhaseMetaFeatures},
	{"recommend", runPhaseRecommend},
	{"feature-select", runPhaseFeatureSelect},
	{"optimize", runPhaseOptimize},
	{"final-fit", runPhaseFinalFit},
}

// newRoundContext prepares the shared state for one run.
func (e *Engine) newRoundContext(srv *fl.Server) *roundContext {
	rc := &roundContext{
		engine: e,
		srv:    srv,
		rec:    e.Cfg.Recorder,
		//lint:allow walltime TimeBudget is a wall-clock contract with the user (Algorithm 1's T)
		start:     time.Now(),
		startNS:   obs.NowNanos(),
		statsBase: srv.Stats(),
		result:    &Result{},
	}
	if rc.rec != nil {
		trace := obs.DeriveTrace(e.Cfg.Seed)
		rc.tracer = &roundTracer{trace: trace, runSpan: obs.DeriveSpan(trace, obs.SpanRun, 0)}
	}
	return rc
}

// RunWithServer executes Algorithm 1 over an arbitrary transport (the
// TCP deployment path uses this directly): the five phases run in
// order over one shared roundContext, each wrapped in a phase span,
// with the whole run under one run span. The server carries the run's
// recorder for its duration so the quorum layer can emit call and
// attempt spans.
// Each phase runs under a pprof "phase" label on a context without
// labels, so the calling goroutine ends the run with no profiler
// labels; RunWithServerContext keeps the caller's.
func (e *Engine) RunWithServer(srv *fl.Server) (*Result, error) {
	return e.RunWithServerContext(context.Background(), srv)
}

// RunWithServerContext is RunWithServer with the caller's profiler
// labels: each phase's label is added to those on ctx (pprof.Do), and
// they are the goroutine's labels again once a phase returns. The run
// reads nothing else from ctx; it does not watch it for cancellation.
func (e *Engine) RunWithServerContext(ctx context.Context, srv *fl.Server) (*Result, error) {
	return e.runPhases(ctx, srv)
}

// runPhases drives one run: the five phases in order over one shared
// roundContext, each in a phase span under the run span. The run span
// is sequence number 0 of the seed's trace, and every span ID below it
// derives from the run span's.
func (e *Engine) runPhases(ctx context.Context, srv *fl.Server) (*Result, error) {
	if srv.NumClients() == 0 {
		return nil, errors.New("core: no clients connected")
	}
	rc := e.newRoundContext(srv)
	var run obs.SpanStart
	if rc.rec != nil {
		srv.SetRecorder(rc.rec)
		defer srv.SetRecorder(nil)
		run = obs.SpanStart{
			Trace:   obs.HexID(rc.tracer.trace),
			Span:    obs.HexID(rc.tracer.runSpan),
			Kind:    obs.SpanRun,
			Name:    obs.SpanRun,
			Seq:     0,
			Client:  -1,
			StartNS: rc.startNS,
		}
		rc.rec.Record(run)
	}
	for i, ph := range enginePhases {
		var phase obs.SpanStart
		if rc.rec != nil {
			rc.tracer.phaseSpan = obs.DeriveSpan(rc.tracer.runSpan, obs.SpanPhase, i)
			phase = obs.SpanStart{
				Trace:   run.Trace,
				Span:    obs.HexID(rc.tracer.phaseSpan),
				Parent:  run.Span,
				Kind:    obs.SpanPhase,
				Name:    ph.name,
				Seq:     i,
				Client:  -1,
				StartNS: obs.NowNanos(),
			}
			rc.rec.Record(phase)
		}
		// The phase label splits CPU profiles by phase
		// (go tool pprof -tagfocus phase=optimize); goroutines the
		// phase starts inherit it. Without a profile running it costs
		// a few small allocations per phase and changes no result.
		var err error
		pprof.Do(ctx, pprof.Labels("phase", ph.name), func(context.Context) {
			err = ph.run(rc)
		})
		if rc.rec != nil {
			rc.rec.Record(phase.End(obs.NowNanos(), err))
		}
		if err != nil {
			if rc.rec != nil {
				rc.rec.Record(run.End(obs.NowNanos(), err))
			}
			return nil, err
		}
	}
	rc.result.Comms = srv.Stats().Sub(rc.statsBase)
	if rc.rec != nil {
		c := rc.result.Comms
		rc.rec.Record(obs.CommsSummary{
			Rounds:      c.Rounds,
			Calls:       c.Calls,
			BytesDown:   c.BytesDown,
			BytesUp:     c.BytesUp,
			WastedCalls: c.WastedCalls,
			WastedBytes: c.WastedBytes,
		})
		rc.rec.Record(run.End(obs.NowNanos(), nil))
	}
	return rc.result, nil
}

// runPhaseMetaFeatures is Phase I: meta-features computed on each
// client, aggregated on the server (Figure 1-I, Algorithm 1 lines
// 3-8).
func runPhaseMetaFeatures(rc *roundContext) error {
	agg, err := rc.collectMetaFeatures()
	if err != nil {
		return err
	}
	rc.agg = agg
	rc.result.AggregatedMeta = agg
	return nil
}

// runPhaseRecommend is Phase II: the meta-model recommends the
// restricted search space A' (Figure 1-II, lines 9-10).
func runPhaseRecommend(rc *roundContext) error {
	e := rc.engine
	spaces := e.Cfg.Spaces
	if spaces == nil {
		spaces = search.DefaultSpaces()
	}
	if e.Meta != nil {
		recommended := e.Meta.RecommendTopK(rc.agg.Vector(), e.Cfg.TopK)
		var restricted []search.Space
		for _, name := range recommended {
			if sp, ok := search.SpaceFor(spaces, name); ok {
				restricted = append(restricted, sp)
			}
		}
		if len(restricted) > 0 {
			spaces = restricted
		}
		rc.result.Recommended = recommended
	}
	if e.Cfg.StructureSearch {
		// Widen after the meta-model restriction so structure dimensions
		// ride on whichever algorithm families were recommended.
		spaces = search.WithStructure(spaces)
	}
	rc.spaces = spaces
	return nil
}

// runPhaseFeatureSelect is Phase III-a: unified feature engineering
// from the aggregated meta-features and the configured exogenous
// channels, then federated feature selection (Figure 1-III, lines
// 11-13, Section 4.2). The engineer is frozen after this phase; the
// optimize phase content-addresses it.
func runPhaseFeatureSelect(rc *roundContext) error {
	eng := features.NewEngineer(rc.agg)
	eng.ExogNames = append([]string(nil), rc.engine.Cfg.ExogChannels...)
	rc.result.NumFeatures = len(eng.FeatureNames())
	if rc.engine.Cfg.FeatureSelection {
		kept, err := rc.selectFeatures(eng)
		if err != nil {
			return err
		}
		if len(kept) > 0 {
			eng.Keep = kept
			rc.result.KeptFeatures = kept
		}
	}
	rc.engineer = eng
	return nil
}

// runPhaseOptimize is Phase III-b: hyper-parameter optimization
// against the aggregated global loss (lines 14-22, Section 4.3). One
// federated round evaluates a batch of up to BatchSize candidates
// (constant-liar q-EI proposals) against matrices the clients cached
// at the prepare round; BatchSize 1 replays the paper's sequential
// loop exactly.
func runPhaseOptimize(rc *roundContext) error {
	e := rc.engine
	opt := bayesopt.New(rc.spaces, e.Cfg.Seed)
	if e.Cfg.WarmStart {
		maxDim := 0
		for _, sp := range rc.spaces {
			if d := sp.Dim(); d > maxDim {
				maxDim = d
			}
		}
		u := make([]float64, maxDim)
		warm := make([]search.Config, 0, len(rc.spaces))
		for _, sp := range rc.spaces {
			// The space centre is the canonical default instantiation;
			// Decode copies, so one buffer serves every space.
			v := u[:sp.Dim()]
			for i := range v {
				v[i] = 0.5
			}
			// Structure dimensions warm-start at their first choice
			// ("none"): the degenerate chain anchors the search at the
			// paper's pipeline before BO explores graph shapes.
			for i, p := range sp.Params {
				if search.IsStructureParam(p.Name) {
					v[i] = 0
				}
			}
			warm = append(warm, sp.Decode(v))
		}
		opt.Warm(warm)
	}
	if err := rc.prepareEval(); err != nil {
		return err
	}
	rng := newRng(e.Cfg.Seed + 7)
	q := e.Cfg.BatchSize
	if q < 1 {
		q = 1
	}
	result := rc.result
	for len(result.History) < e.Cfg.Iterations {
		// Always evaluate at least one round so a budget spent on the
		// earlier phases still yields a deployable model.
		//lint:allow walltime TimeBudget is a wall-clock contract with the user (Algorithm 1's T)
		if len(result.History) > 0 && e.Cfg.TimeBudget > 0 && time.Since(rc.start) > e.Cfg.TimeBudget {
			break
		}
		k := q
		if rem := e.Cfg.Iterations - len(result.History); k > rem {
			k = rem
		}
		var cfgs []search.Config
		if e.Cfg.UseBayesOpt {
			cfgs = opt.ProposeBatch(k)
		} else {
			for j := 0; j < k; j++ {
				sp := rc.spaces[rng.Intn(len(rc.spaces))]
				cfgs = append(cfgs, sp.Sample(rng))
			}
		}
		losses, err := rc.evalConfigs(cfgs, kindEvalConfig)
		if err != nil {
			return err
		}
		opt.ObserveAll(cfgs, losses)
		for j := range cfgs {
			result.History = append(result.History, IterationRecord{
				//lint:allow walltime Elapsed is diagnostic wall-clock telemetry, not part of the replayable result
				Config: cfgs[j], GlobalLoss: losses[j], Elapsed: time.Since(rc.start),
			})
			if rc.rec != nil {
				rc.rec.Record(obs.BOIteration{
					Index:  len(result.History) - 1,
					Config: cfgs[j].String(),
					Loss:   losses[j],
				})
			}
		}
		result.EvalRounds++
	}
	best, bestLoss, ok := opt.Best()
	if !ok {
		return errors.New("core: optimization produced no evaluations")
	}
	result.BestConfig = best
	result.BestValidLoss = bestLoss
	result.Iterations = len(result.History)
	return nil
}

// runPhaseFinalFit is Phase IV: final fit on each client and the
// aggregated test metric (Figure 1-IV, lines 23-27), served from the
// same cached matrices (test phase built on first use).
func runPhaseFinalFit(rc *roundContext) error {
	best := rc.result.BestConfig
	losses, err := rc.evalConfigs([]search.Config{best}, kindFitFinal)
	if err != nil {
		return err
	}
	rc.result.TestMSE = losses[0]
	return nil
}

// prepareEval runs the one-time eval/prepare round: ship the frozen
// engineer + splits (plus their content fingerprint) to every client
// once, after which evaluation rounds carry only the fingerprint and
// the candidate batch.
func (rc *roundContext) prepareEval() error {
	rc.fingerprint = engineerFingerprint(rc.engineer, rc.engine.Cfg.Splits)
	req := fl.NewMessage(kindEvalPrepare)
	encodeEngineer(&req, rc.engineer)
	encodeSplits(&req, rc.engine.Cfg.Splits)
	req.Strings[keyFingerprint] = rc.fingerprint
	if _, _, err := rc.broadcast(req, 0); err != nil {
		return roundTripError("prepare", err)
	}
	return nil
}

// evalConfigs drives one batched evaluation round of the given kind
// and returns the Equation-1 aggregated global loss per candidate, in
// candidate order. A survivor that missed the prepare round (possible
// under partial participation) answers need_prepare; the server heals
// once by re-preparing and re-evaluating before aggregating.
func (rc *roundContext) evalConfigs(cfgs []search.Config, kind string) ([]float64, error) {
	req := fl.NewMessage(kind)
	encodeBatch(&req, rc.fingerprint, cfgs)
	resps, _, err := rc.broadcast(req, len(cfgs))
	if err != nil {
		return nil, roundTripError(kind, err)
	}
	if needPrepare(resps) {
		if err := rc.prepareEval(); err != nil {
			return nil, err
		}
		resps, _, err = rc.broadcast(req, len(cfgs))
		if err != nil {
			return nil, roundTripError(kind, err)
		}
	}
	return aggregateBatchLosses(resps, len(cfgs))
}

// needPrepare reports whether any round survivor lacked the schema.
func needPrepare(resps []fl.Message) bool {
	for _, r := range resps {
		if r.Scalars["need_prepare"] == 1 {
			return true
		}
	}
	return false
}

// aggregateBatchLosses computes the Equation-1 weighted global loss
// per candidate over the quorum survivors: each response carries its
// own size, so the weighted sum is exactly the dense computation
// restricted to the responder indices. Clients that reported
// skipped/need_prepare contribute to no candidate.
func aggregateBatchLosses(resps []fl.Message, k int) ([]float64, error) {
	out := make([]float64, k)
	losses := make([]float64, 0, len(resps))
	sizes := make([]float64, 0, len(resps))
	for j := 0; j < k; j++ {
		losses, sizes = losses[:0], sizes[:0]
		for _, r := range resps {
			if r.Scalars["skipped"] == 1 || r.Scalars["need_prepare"] == 1 {
				continue
			}
			l := r.Floats["losses"]
			if j >= len(l) {
				continue
			}
			losses = append(losses, l[j])
			sizes = append(sizes, r.Scalars["size"])
		}
		v, err := fl.WeightedLoss(losses, sizes)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// quorum builds the round policy from the engine's resilience knobs.
// MinClientFraction = 0 maps to full participation (fraction 1.0).
// Dropped clients are reported as typed ClientDropped events.
func (e *Engine) quorum(kind string, rec obs.Recorder) fl.QuorumConfig {
	frac := e.Cfg.MinClientFraction
	if frac <= 0 {
		frac = 1
	}
	q := fl.QuorumConfig{
		MinFraction: frac,
		Retry: fl.RetryPolicy{
			Timeout:    e.Cfg.CallTimeout,
			MaxRetries: e.Cfg.MaxRetries,
			Jitter:     e.jitter,
		},
	}
	if rec != nil {
		q.OnDrop = func(client int, err error) {
			rec.Record(obs.ClientDropped{Kind: kind, Client: client, Reason: err.Error()})
		}
	}
	return q
}

// broadcast drives one quorum round of the run. Batch is the
// candidate count for evaluation rounds, 0 for metadata rounds. With a
// live tracer, the round opens a span under the current phase carrying
// the batch and the addressed client count (its end carries the
// survivors), ships its packed context to the clients inside the
// request (keyTrace), and hands the quorum layer the context it derives
// per-client call and attempt spans from. A round driven twice (the
// need_prepare healing path re-broadcasts the same request) gets a
// fresh round span each time — two rounds happened on the wire, so two
// spans exist in the trace.
func (rc *roundContext) broadcast(req fl.Message, batch int) ([]fl.Message, []int, error) {
	q := rc.engine.quorum(req.Kind, rc.rec)
	tr := rc.tracer
	if tr == nil {
		return rc.srv.BroadcastQuorum(req, q)
	}
	q.Span = obs.SpanContext{Trace: tr.trace, Span: obs.DeriveSpan(tr.phaseSpan, obs.SpanRound, tr.seq)}
	req.Strings[keyTrace] = obs.PackSpanContext(q.Span)
	round := obs.SpanStart{
		Trace:   obs.HexID(tr.trace),
		Span:    obs.HexID(q.Span.Span),
		Parent:  obs.HexID(tr.phaseSpan),
		Kind:    obs.SpanRound,
		Name:    req.Kind,
		Seq:     tr.seq,
		Client:  -1,
		StartNS: obs.NowNanos(),
		Batch:   batch,
		Clients: rc.srv.NumClients(),
	}
	tr.seq++
	rc.rec.Record(round)
	msgs, idx, err := rc.srv.BroadcastQuorum(req, q)
	end := round.End(obs.NowNanos(), err)
	end.Survivors = len(idx)
	rc.rec.Record(end)
	return msgs, idx, err
}

// collectMetaFeatures runs the two Phase-I rounds. Under partial
// participation each round aggregates over whichever clients answered
// it; the value range and fingerprints of dropped clients are simply
// absent from the global aggregate, mirroring Flower's per-round
// sampling.
func (rc *roundContext) collectMetaFeatures() (metafeat.Aggregated, error) {
	rangeResps, _, err := rc.broadcast(fl.NewMessage(kindRange), 0)
	if err != nil {
		return metafeat.Aggregated{}, roundTripError("range", err)
	}
	lo, hi := rangeResps[0].Scalars["lo"], rangeResps[0].Scalars["hi"]
	for _, r := range rangeResps[1:] {
		if r.Scalars["lo"] < lo {
			lo = r.Scalars["lo"]
		}
		if r.Scalars["hi"] > hi {
			hi = r.Scalars["hi"]
		}
	}
	req := fl.NewMessage(kindMetaFeatures)
	req.Scalars["lo"] = lo
	req.Scalars["hi"] = hi
	resps, _, err := rc.broadcast(req, 0)
	if err != nil {
		return metafeat.Aggregated{}, roundTripError("metafeatures", err)
	}
	feats := make([]metafeat.ClientFeatures, len(resps))
	for i, r := range resps {
		feats[i] = decodeClientFeatures(r)
	}
	return metafeat.Aggregate(feats), nil
}

// selectFeatures runs the federated feature-selection round.
func (rc *roundContext) selectFeatures(eng *features.Engineer) ([]int, error) {
	req := fl.NewMessage(kindImportances)
	encodeEngineer(&req, eng)
	resps, _, err := rc.broadcast(req, 0)
	if err != nil {
		return nil, roundTripError("importances", err)
	}
	var perClient [][]float64
	for _, r := range resps {
		if imp := r.Floats["importances"]; len(imp) > 0 {
			perClient = append(perClient, imp)
		}
	}
	return features.SelectFeatures(perClient, features.ImportanceThreshold), nil
}
