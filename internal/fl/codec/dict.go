package codec

// vocab is the protocol string intern table: any string (kind,
// payload key, or string value) that appears here verbatim is encoded
// as a one-byte table reference instead of its raw bytes. It is the
// codec-level generalization of the round protocol's ship-once trick:
// instead of shipping the schema once per connection, the schema
// strings ship zero times, because both ends compiled them in.
//
// The table is part of wire format v1: both ends derive the indices
// from this list. Removing or reordering entries breaks every assigned
// index and must bump the version byte; appending at the tail keeps
// existing indices, and so every existing frame, stable. The list must
// stay under 128 entries so every reference fits in a single uvarint
// byte (the pinned policy ceiling is 96 — see TestVocabFitsDirectForm).
var vocab = []string{
	// Rare: engine/protocol bookkeeping keys.
	"fingerprint", "need_prepare", "batch", "skipped", "cached", "keep",
	// Search-space categorical values and hyper-parameter names.
	"cyclic", "random", "1.35", "1.5", "1.0",
	"selection", "epsilon", "l1_ratio", "n_estimators", "max_depth",
	"learning_rate", "reg_lambda", "subsample", "quantile", "alpha", "C",
	// Hyper-parameter key stems ("v:" numeric, "c:" categorical); the
	// batched rounds ship them behind an index prefix ("3:v:alpha"),
	// which the prefix string form factors out.
	"v:alpha", "v:C", "v:epsilon", "v:l1_ratio", "v:n_estimators",
	"v:max_depth", "v:learning_rate", "v:reg_lambda", "v:subsample",
	"v:quantile", "c:selection", "c:epsilon",
	// Algorithm names shipped inside every evaluation config.
	"QuantileRegressor", "HuberRegressor", "XGBRegressor",
	"ElasticNetCV", "LinearSVR", "Lasso",
	// Metafeature keys (one props/metafeatures message per client).
	"num_instances", "missing_pct", "kurtosis", "skewness", "fractal",
	"stationary_d1", "stationary_d2", "stationary",
	"seasonal_count", "season_strengths", "season_periods",
	"siglag_count", "insiggap_count", "sig_lags",
	"hist_lo", "hist_hi", "histogram", "importances", "weights",
	"valid_frac", "test_frac", "exog", "lags", "rate",
	// Message kinds: every frame starts with one of these.
	"props/range", "props/metafeatures", "props/importances",
	"eval/prepare", "eval/prepare/done",
	"eval/config", "eval/config/done",
	"fit/final", "fit/final/done",
	// Hottest payload keys: per-config and per-client entries repeated
	// many times per round.
	"algorithm", "flags", "size", "rows",
	"losses", "loss", "lo", "hi", "id",
	// Pipeline-graph extension (appended: earlier indices are frozen).
	// Rolling-origin CV settings ride the split fractions; structure
	// categoricals ship per candidate as "c:g:pre"/"c:g:arm2" with
	// their template-grammar choices as values.
	"cv_folds", "validation_blocks",
	"c:g:pre", "c:g:arm2", "none",
	"smooth3", "smooth5", "diff1", "linear", "tree",
	// Causal-tracing keys (appended: earlier indices are frozen). The
	// request's span context rides under "trace" as one packed hex
	// string (the packed-hex string form ships its 32 digits in 18
	// bytes); the response's client-local span timings ride under
	// "spans" as flat int64 triples.
	TraceKey, SpansKey,
}

// Causal-tracing payload keys, exported so fl and core reference the
// interned spellings instead of re-declaring them.
const (
	// TraceKey carries the round's packed span context in
	// Message.Strings on traced requests.
	TraceKey = "trace"
	// SpansKey carries client-local span timings in Message.Ints on
	// responses to traced requests: flat [op_code, start_ns,
	// duration_ns] triples.
	SpansKey = "spans"
)

// vocabIndex maps each vocab entry to its table index for the
// encoder's exact-match lookup.
var vocabIndex = func() map[string]int {
	idx := make(map[string]int, len(vocab))
	for i, s := range vocab {
		idx[s] = i
	}
	return idx
}()
