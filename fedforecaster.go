// Package fedforecaster is the public API of this reproduction of
// "FedForecaster: An Automated Federated Learning Approach for
// Time-series Forecasting" (EDBT 2025). It automates the full
// univariate forecasting pipeline — feature engineering, algorithm
// selection, and hyper-parameter tuning — across federated clients
// whose raw data never leaves them.
//
// Typical use:
//
//	series, _ := fedforecaster.LoadCSV("energy.csv")
//	clients, _ := series.PartitionClients(10, 500)
//	result, _ := fedforecaster.Run(clients, fedforecaster.Options{Iterations: 24})
//	fmt.Println(result.BestConfig, result.TestMSE)
//
// A meta-model trained on a knowledge base (see BuildKnowledgeBase and
// TrainMetaModel) warm-starts the search, reproducing the paper's full
// method; without one the engine degrades gracefully to cold-start
// Bayesian optimization over the whole Table 2 space.
package fedforecaster

import (
	"errors"
	"time"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/metalearn"
	"fedforecaster/internal/obs"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/synth"
	"fedforecaster/internal/timeseries"
)

// Series is a univariate time series (see timeseries.Series for the
// full method set: Interpolate, TrainValidSplit, PartitionClients...).
type Series = timeseries.Series

// Sampling rates of a Series.
const (
	RateUnknown = timeseries.RateUnknown
	RateHourly  = timeseries.RateHourly
	RateDaily   = timeseries.RateDaily
	RateWeekly  = timeseries.RateWeekly
	RateMonthly = timeseries.RateMonthly
)

// NewSeries constructs a series from raw values.
func NewSeries(name string, values []float64, rate timeseries.SamplingRate) *Series {
	return timeseries.New(name, values, rate)
}

// LoadCSV reads a series from a CSV file (one value column, or
// timestamp,value columns with an auto-detected header).
func LoadCSV(path string) (*Series, error) { return timeseries.ReadCSVFile(path) }

// Result is the outcome of a run: the selected algorithm with its
// hyper-parameters, the optimization history, and the held-out test
// MSE aggregated across clients.
type Result = core.Result

// MetaModel recommends algorithms for new datasets from aggregated
// meta-features (the paper's meta-learning component).
type MetaModel = metalearn.MetaModel

// KnowledgeBase is the persisted offline-phase training set of the
// meta-model.
type KnowledgeBase = metalearn.KnowledgeBase

// Options configure a FedForecaster run with user-friendly defaults.
type Options struct {
	// Iterations is the optimization budget in federated evaluation
	// rounds (default 24).
	Iterations int
	// TimeBudget optionally caps wall-clock time (the paper's T; 0
	// means iterations only).
	TimeBudget time.Duration
	// TopK recommended algorithms when a meta-model is set (default 3).
	TopK int
	// Meta enables meta-learning-based warm starting (nil = cold start).
	Meta *MetaModel
	// ValidFrac/TestFrac are the chronological split fractions
	// (defaults 0.15/0.15).
	ValidFrac, TestFrac float64
	// CVFolds > 1 evaluates optimization candidates with rolling-origin
	// cross-validation over the validation span (CVFolds windows of
	// CVBlocks blocks each) instead of the single train/valid split;
	// per-fold losses aggregate rows-weighted on each client before the
	// Equation-1 aggregation across clients. 0 or 1 keeps the paper's
	// single split byte-for-byte. Test reporting is never
	// cross-validated.
	CVFolds int
	// CVBlocks sets the blocks per CV fold window (default 1; only
	// meaningful with CVFolds > 1).
	CVBlocks int
	// StructureSearch lets the optimizer propose pipeline structure —
	// a trailing smoothing/differencing pre-transform and an optional
	// fixed second regressor arm merged by mean — alongside
	// hyper-parameters (the pipeline-graph extension). Off keeps the
	// paper's fixed engineer→model chain.
	StructureSearch bool
	// Seed drives all randomness.
	Seed int64
	// DisableFeatureSelection turns off the federated RF selection.
	DisableFeatureSelection bool
	// ExogChannels names exogenous channels present in every client's
	// Series.Exog map (multivariate extension): their lag-1 values are
	// added to the shared feature schema.
	ExogChannels []string
	// CallTimeout bounds each per-client protocol call (0 = wait
	// forever); on the TCP transport it is enforced on the socket.
	CallTimeout time.Duration
	// MaxRetries retries failed client calls with exponential backoff
	// before dropping the client from the round (default 0).
	MaxRetries int
	// MinClientFraction ∈ (0, 1] tolerates stragglers and crashes: a
	// round succeeds when at least this fraction of clients respond and
	// aggregates over the survivors. 0 requires full participation.
	MinClientFraction float64
	// BatchSize is the number of candidate configurations proposed and
	// evaluated per federated round (round protocol v2's q). The
	// default 1 reproduces the paper's sequential loop bit-for-bit;
	// q > 1 trades per-round compute for ~q× fewer evaluation rounds
	// via constant-liar q-EI proposals.
	BatchSize int
	// Wire selects the wire format in the -wire flag syntax: "" or "v1"
	// for lossless frames, "v1+q8" or "v1+q16" for int8/float16 payload
	// quantization. Invalid strings make Run fail fast.
	Wire string
	// Recorder receives the typed telemetry stream (run, phase, round,
	// call and attempt spans, client drops, BO iterations) when non-nil.
	// Combine sinks with obs-style fan-out before setting it; nil
	// disables telemetry with zero overhead.
	Recorder Recorder
}

// Recorder consumes typed telemetry events (see internal/obs for the
// event taxonomy and the Metrics / JSONL / Serve sinks).
type Recorder = obs.Recorder

func (o Options) engineConfig() (core.EngineConfig, error) {
	cfg := core.DefaultEngineConfig()
	if o.Wire != "" {
		w, err := fl.ParseWireOpts(o.Wire)
		if err != nil {
			return cfg, err
		}
		cfg.Wire = w
	}
	if o.Iterations > 0 {
		cfg.Iterations = o.Iterations
	}
	cfg.TimeBudget = o.TimeBudget
	if o.TopK > 0 {
		cfg.TopK = o.TopK
	}
	if o.ValidFrac > 0 {
		cfg.Splits.ValidFrac = o.ValidFrac
	}
	if o.TestFrac > 0 {
		cfg.Splits.TestFrac = o.TestFrac
	}
	if o.CVFolds > 1 {
		cfg.Splits.CVFolds = o.CVFolds
		cfg.Splits.ValidationBlocks = o.CVBlocks
	}
	cfg.StructureSearch = o.StructureSearch
	cfg.Seed = o.Seed
	cfg.FeatureSelection = !o.DisableFeatureSelection
	cfg.ExogChannels = o.ExogChannels
	cfg.CallTimeout = o.CallTimeout
	cfg.MaxRetries = o.MaxRetries
	cfg.MinClientFraction = o.MinClientFraction
	if o.BatchSize > 0 {
		cfg.BatchSize = o.BatchSize
	}
	cfg.Recorder = o.Recorder
	return cfg, nil
}

// Run executes the full FedForecaster pipeline (Algorithm 1) over the
// client splits and returns the best configuration with its test MSE.
func Run(clients []*Series, opts Options) (*Result, error) {
	cfg, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(opts.Meta, cfg)
	return engine.Run(clients)
}

// Deployment holds per-client fitted forecasters produced by Deploy.
type Deployment = core.Deployment

// LocalModel is one client's deployed forecaster; see Forecast and
// PredictNext.
type LocalModel = core.LocalModel

// Deploy fits a run's best configuration on every client's complete
// series (the paper's inference phase) and returns per-client models
// able to produce multi-step forecasts.
func Deploy(clients []*Series, result *Result, seed int64) (*Deployment, error) {
	return core.Deploy(clients, result, seed)
}

// RunRandomSearch executes the paper's federated random-search
// baseline with the same budget semantics.
func RunRandomSearch(clients []*Series, opts Options) (*Result, error) {
	cfg, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	return core.RunRandomSearch(clients, core.RandomSearchConfig{
		Iterations: cfg.Iterations,
		TimeBudget: cfg.TimeBudget,
		Splits:     cfg.Splits,
		Seed:       cfg.Seed,
	})
}

// KBOptions configure offline knowledge-base construction.
type KBOptions struct {
	// NumSynthetic datasets generated with the paper's recipe
	// (512 in the paper; scale down for quick builds).
	NumSynthetic int
	// NumRealLike adds draws from the evaluation-family generators
	// (the paper's 30 real datasets; excluded from Table 3 scoring).
	NumRealLike int
	// SeriesScale shrinks generated series lengths (1.0 = paper scale).
	SeriesScale float64
	// GridPerParam controls grid-search resolution per hyper-parameter
	// (default 2).
	GridPerParam int
	// Clients per KB dataset (the paper splits into 5/10/15/20).
	ClientChoices []int
	Seed          int64
	// Progress receives one callback per completed record.
	Progress func(done, total int, dataset string)
}

// BuildKnowledgeBase runs the offline phase of Figure 2: generate the
// synthetic corpus, split each dataset into clients, grid-search every
// Table 2 algorithm, and record meta-features with the best algorithm.
func BuildKnowledgeBase(opts KBOptions) (*KnowledgeBase, error) {
	return buildKB(opts)
}

// TrainMetaModel fits the named Table 4 classifier (e.g. "Random
// Forest") on a knowledge base.
func TrainMetaModel(kb *KnowledgeBase, classifier string, seed int64) (*MetaModel, error) {
	clf, err := metalearn.NewClassifier(classifier, seed)
	if err != nil {
		return nil, err
	}
	return metalearn.TrainMetaModel(kb, clf)
}

// SaveKnowledgeBase persists a knowledge base as JSON.
func SaveKnowledgeBase(kb *KnowledgeBase, path string) error { return kb.Save(path) }

// LoadKnowledgeBase reads a knowledge base written by
// SaveKnowledgeBase.
func LoadKnowledgeBase(path string) (*KnowledgeBase, error) { return metalearn.Load(path) }

// Algorithms lists the Table 2 search-space algorithm names.
func Algorithms() []string { return search.AllAlgorithms() }

// MetaModelNames lists the Table 4 meta-model classifier names.
func MetaModelNames() []string { return metalearn.MetaModelNames() }

// buildKB is the concrete knowledge-base builder.
func buildKB(opts KBOptions) (*KnowledgeBase, error) {
	if opts.NumSynthetic <= 0 {
		opts.NumSynthetic = 512
	}
	if opts.SeriesScale <= 0 || opts.SeriesScale > 1 {
		opts.SeriesScale = 1
	}
	if opts.GridPerParam <= 0 {
		opts.GridPerParam = 2
	}
	if len(opts.ClientChoices) == 0 {
		opts.ClientChoices = []int{5, 10, 15, 20}
	}
	kb := &KnowledgeBase{FeatureNames: metaFeatureNames()}
	spaces := search.DefaultSpaces()
	splits := pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15}

	specs := synth.KnowledgeBaseSpecs(opts.NumSynthetic, opts.Seed)
	type job struct {
		name    string
		clients []*Series
	}
	var jobs []job
	for i, sp := range specs {
		sp.N = int(float64(sp.N) * opts.SeriesScale)
		if sp.N < 400 {
			sp.N = 400
		}
		s := sp.Generate()
		nClients := opts.ClientChoices[i%len(opts.ClientChoices)]
		// The paper requires ≥500 instances per client and drops
		// configurations below it; at reduced scale we proportionally
		// reduce the floor.
		minPer := int(500 * opts.SeriesScale)
		if minPer < 80 {
			minPer = 80
		}
		for nClients > 1 && s.Len()/nClients < minPer {
			nClients /= 2
		}
		clients, err := s.PartitionClients(nClients, 1)
		if err != nil {
			continue
		}
		jobs = append(jobs, job{sp.Name, clients})
	}
	// Real-like draws from the evaluation families (fresh seeds so
	// Table 3 data is never in the KB).
	families := synth.EvalDatasets()
	for i := 0; i < opts.NumRealLike; i++ {
		d := families[i%len(families)].Scaled(0.15 * opts.SeriesScale * 4)
		d.Seed = opts.Seed + 50000 + int64(i)*37
		d.Name = d.Name + "_kb"
		clients, _, err := d.Generate()
		if err != nil {
			continue
		}
		jobs = append(jobs, job{d.Name, clients})
	}

	total := len(jobs)
	for i, j := range jobs {
		rec, err := metalearn.BuildRecord(j.name, j.clients, spaces, opts.GridPerParam, splits, opts.Seed+int64(i))
		if err != nil {
			continue
		}
		kb.Records = append(kb.Records, rec)
		if opts.Progress != nil {
			opts.Progress(i+1, total, j.name)
		}
	}
	if len(kb.Records) == 0 {
		return nil, errors.New("fedforecaster: knowledge-base construction produced no records")
	}
	return kb, nil
}

// metaFeatureNames exposes the Table 1 vector schema.
func metaFeatureNames() []string { return metafeat.VectorNames() }
