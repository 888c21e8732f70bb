// Package core implements FedForecaster itself (Algorithm 1): the
// federated protocol between the central server and the clients —
// meta-feature aggregation, meta-learning based algorithm
// recommendation, unified feature engineering with federated feature
// selection, Bayesian-optimization hyper-parameter tuning against the
// aggregated global loss, and final per-client fitting — plus the
// paper's baselines (federated random search, federated N-BEATS, and
// consolidated N-BEATS).
package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"fedforecaster/internal/features"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/fl/codec"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
	"fedforecaster/internal/tsa"
)

// Message kinds of the FedForecaster protocol.
//
// Round protocol v2 (see DESIGN.md "Round protocol v2"): the engineer
// schema is frozen after Phase III and shipped exactly once in an
// eval/prepare round together with its content fingerprint; every
// later eval/config and fit/final round carries only the fingerprint
// plus a batch of encoded candidate configurations, and clients
// evaluate against feature matrices cached under that fingerprint.
const (
	kindRange        = "props/range"        // → client min/max for histogram alignment
	kindMetaFeatures = "props/metafeatures" // → client meta-feature fingerprint
	kindImportances  = "props/importances"  // → client RF feature importances
	kindEvalPrepare  = "eval/prepare"       // → ship engineer+splits once; client caches by fingerprint
	kindEvalConfig   = "eval/config"        // → client validation losses for a candidate batch
	kindFitFinal     = "fit/final"          // → client test loss of the final config
)

// encodeEngineer serializes the shared feature-engineering schema.
func encodeEngineer(msg *fl.Message, eng *features.Engineer) {
	msg.Ints["lags"] = append([]int(nil), eng.Lags...)
	// Preallocated, but nil when Seasonal is empty: the wire schema
	// distinguishes absent from empty-but-present slices.
	var periods []int
	var strengths []float64
	if n := len(eng.Seasonal); n > 0 {
		periods = make([]int, 0, n)
		strengths = make([]float64, 0, n)
	}
	for _, sc := range eng.Seasonal {
		periods = append(periods, sc.Period)
		strengths = append(strengths, sc.Strength)
	}
	msg.Ints["season_periods"] = periods
	msg.Floats["season_strengths"] = strengths
	flags := 0
	if eng.UseTrend {
		flags |= 1
	}
	if eng.UseTime {
		flags |= 2
	}
	msg.Ints["flags"] = []int{flags}
	if len(eng.ExogNames) > 0 {
		msg.Strings["exog"] = strings.Join(eng.ExogNames, ",")
	}
	if eng.Keep != nil {
		// Non-nil even when empty: the presence of the key is what
		// carries the "restricted schema" semantics, and an empty Keep
		// ("keep nothing") must not decode as nil ("keep everything").
		msg.Ints["keep"] = append([]int{}, eng.Keep...)
	}
}

// decodeEngineer reverses encodeEngineer.
func decodeEngineer(msg fl.Message) *features.Engineer {
	e := &features.Engineer{Lags: append([]int(nil), msg.Ints["lags"]...)}
	periods := msg.Ints["season_periods"]
	strengths := msg.Floats["season_strengths"]
	for i, p := range periods {
		s := 0.0
		if i < len(strengths) {
			s = strengths[i]
		}
		e.Seasonal = append(e.Seasonal, tsa.SeasonalComponent{Period: p, Strength: s})
	}
	if f := msg.Ints["flags"]; len(f) == 1 {
		e.UseTrend = f[0]&1 != 0
		e.UseTime = f[0]&2 != 0
	}
	if ex := msg.Strings["exog"]; ex != "" {
		e.ExogNames = strings.Split(ex, ",")
	}
	if k, ok := msg.Ints["keep"]; ok {
		// append to a non-nil base: the codec decodes an empty slice
		// value as nil while keeping the key, and key presence alone must
		// restore a non-nil (possibly empty) Keep.
		e.Keep = append([]int{}, k...)
	}
	return e
}

// encodeConfigAt serializes candidate i of a batch into the message
// under "i:"-prefixed keys (index prefixes cannot collide: "1:" is
// never a prefix of "11:..." because ':' terminates the index digits).
// Numeric hyper-parameters are scalars behind "i:v:", categorical ones
// strings behind "i:c:".
func encodeConfigAt(msg *fl.Message, cfg search.Config, i int) {
	p := strconv.Itoa(i) + ":"
	msg.Strings[p+"algorithm"] = cfg.Algorithm
	for k, v := range cfg.Values {
		msg.Scalars[p+"v:"+k] = v
	}
	for k, v := range cfg.Cats {
		msg.Strings[p+"c:"+k] = v
	}
}

// decodeConfigAt reverses encodeConfigAt for candidate i.
func decodeConfigAt(msg fl.Message, i int) search.Config {
	p := strconv.Itoa(i) + ":"
	cfg := search.Config{
		Algorithm: msg.Strings[p+"algorithm"],
		Values:    map[string]float64{},
		Cats:      map[string]string{},
	}
	vp, cp := p+"v:", p+"c:"
	for k, v := range msg.Scalars {
		if strings.HasPrefix(k, vp) {
			cfg.Values[k[len(vp):]] = v
		}
	}
	for k, v := range msg.Strings {
		if strings.HasPrefix(k, cp) {
			cfg.Cats[k[len(cp):]] = v
		}
	}
	return cfg
}

// encodeBatch writes a candidate batch plus its schema fingerprint —
// the entire payload of a v2 evaluation round.
func encodeBatch(msg *fl.Message, fingerprint string, cfgs []search.Config) {
	msg.Strings[keyFingerprint] = fingerprint
	msg.Ints[keyBatch] = []int{len(cfgs)}
	for i, c := range cfgs {
		encodeConfigAt(msg, c, i)
	}
}

// decodeBatch reverses encodeBatch, returning the candidates in index
// order.
func decodeBatch(msg fl.Message) []search.Config {
	n := 0
	if b := msg.Ints[keyBatch]; len(b) == 1 {
		n = b[0]
	}
	cfgs := make([]search.Config, n)
	for i := range cfgs {
		cfgs[i] = decodeConfigAt(msg, i)
	}
	return cfgs
}

// Keys of the v2 evaluation payload.
const (
	keyFingerprint = "fingerprint"
	keyBatch       = "batch"
	// Rolling-origin CV settings, shipped with the split fractions only
	// when cross-validation is enabled (CVFolds > 1) so single-split
	// rounds stay byte-identical to the pre-CV wire format.
	keyCVFolds          = "cv_folds"
	keyValidationBlocks = "validation_blocks"
	// Causal-tracing keys (values interned by the codec): a traced
	// round's request carries its packed span context under keyTrace;
	// clients answering a traced request ship local span timings back
	// under keySpans as flat [op, start_ns, duration_ns] triples. The
	// accounting layer strips both, so Result.Comms is identical with
	// tracing on or off.
	keyTrace = codec.TraceKey
	keySpans = codec.SpansKey
)

// engineerFingerprint content-addresses the frozen engineer schema and
// split fractions. The canonical form walks only slices and scalar
// fields (never map iteration, so the hash is deterministic) and
// distinguishes nil Keep (full schema) from an explicit empty Keep.
// Clients key their feature-matrix caches on it; any schema change —
// new lags, different selection, different splits — produces a new
// fingerprint and therefore a fresh prepare round.
func engineerFingerprint(eng *features.Engineer, s pipeline.Splits) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v2|lags:%v|", eng.Lags)
	const zeros = "0000000000000000"
	for _, sc := range eng.Seasonal {
		// strconv instead of Fprintf: identical bytes ("%d" and a
		// zero-padded "%016x") with no interface boxing per season.
		b.WriteString("season:")
		b.WriteString(strconv.Itoa(sc.Period))
		b.WriteByte(':')
		hx := strconv.FormatUint(math.Float64bits(sc.Strength), 16)
		b.WriteString(zeros[:16-len(hx)])
		b.WriteString(hx)
		b.WriteByte('|')
	}
	fmt.Fprintf(&b, "trend:%t|time:%t|", eng.UseTrend, eng.UseTime)
	fmt.Fprintf(&b, "exog:%s|", strings.Join(eng.ExogNames, ","))
	fmt.Fprintf(&b, "keepnil:%t|keep:%v|", eng.Keep == nil, eng.Keep)
	fmt.Fprintf(&b, "splits:%016x:%016x",
		math.Float64bits(s.ValidFrac), math.Float64bits(s.TestFrac))
	if s.CVFolds > 1 {
		// CV settings reshape the cached fold matrices, so they are part
		// of the schema identity; the suffix is omitted when disabled so
		// single-split fingerprints match the pre-CV bytes exactly.
		fmt.Fprintf(&b, "|cv:%d:%d", s.CVFolds, s.ValidationBlocks)
	}
	h := fnv.New64a()
	//lint:allow errdrop fnv's Write is documented to never fail
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// evalSeed derives the fitting seed of batch candidate i from the
// client's base seed. Index 0 maps to the base seed itself, so a batch
// of one fits with the client's own seed and q=1 reproduces the
// paper's sequential loop bit for bit (the q=1 ≡ sequential
// determinism contract); later indices mix in an odd
// 64-bit constant (splitmix64's γ) so concurrent candidates never
// share a stream.
func evalSeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	return base ^ int64(uint64(i)*0x9e3779b97f4a7c15)
}

// encodeSplits/decodeSplits carry the chronological split fractions
// and, only when enabled, the rolling-origin CV settings (absent keys
// decode to zero, i.e. single-split).
func encodeSplits(msg *fl.Message, s pipeline.Splits) {
	msg.Scalars["valid_frac"] = s.ValidFrac
	msg.Scalars["test_frac"] = s.TestFrac
	if s.CVFolds > 1 {
		msg.Scalars[keyCVFolds] = float64(s.CVFolds)
		msg.Scalars[keyValidationBlocks] = float64(s.ValidationBlocks)
	}
}

func decodeSplits(msg fl.Message) pipeline.Splits {
	return pipeline.Splits{
		ValidFrac:        msg.Scalars["valid_frac"],
		TestFrac:         msg.Scalars["test_frac"],
		CVFolds:          int(msg.Scalars[keyCVFolds]),
		ValidationBlocks: int(msg.Scalars[keyValidationBlocks]),
	}
}

// encodeClientFeatures serializes a metafeat.ClientFeatures
// fingerprint (scalar statistics only — the privacy boundary).
func encodeClientFeatures(msg *fl.Message, cf metafeat.ClientFeatures) {
	msg.Scalars["num_instances"] = cf.NumInstances
	msg.Scalars["missing_pct"] = cf.MissingPct
	msg.Scalars["stationary"] = cf.Stationary
	msg.Scalars["stationary_d1"] = cf.StationaryDiff1
	msg.Scalars["stationary_d2"] = cf.StationaryDiff2
	msg.Scalars["siglag_count"] = cf.SigLagCount
	msg.Scalars["insiggap_count"] = cf.InsigGapCount
	msg.Scalars["seasonal_count"] = cf.SeasonalCount
	msg.Scalars["skewness"] = cf.Skewness
	msg.Scalars["kurtosis"] = cf.Kurtosis
	msg.Scalars["fractal"] = cf.FractalDim
	msg.Scalars["rate"] = float64(cf.Rate)
	msg.Scalars["hist_lo"] = cf.HistLo
	msg.Scalars["hist_hi"] = cf.HistHi
	msg.Ints["sig_lags"] = append([]int(nil), cf.SigLags...)
	// Preallocated, but nil when Seasonal is empty: the wire schema
	// distinguishes absent from empty-but-present slices.
	var periods []int
	var strengths []float64
	if n := len(cf.Seasonal); n > 0 {
		periods = make([]int, 0, n)
		strengths = make([]float64, 0, n)
	}
	for _, sc := range cf.Seasonal {
		periods = append(periods, sc.Period)
		strengths = append(strengths, sc.Strength)
	}
	msg.Ints["season_periods"] = periods
	msg.Floats["season_strengths"] = strengths
	msg.Floats["histogram"] = append([]float64(nil), cf.Histogram...)
}

// decodeClientFeatures reverses encodeClientFeatures.
func decodeClientFeatures(msg fl.Message) metafeat.ClientFeatures {
	cf := metafeat.ClientFeatures{
		NumInstances:    msg.Scalars["num_instances"],
		MissingPct:      msg.Scalars["missing_pct"],
		Stationary:      msg.Scalars["stationary"],
		StationaryDiff1: msg.Scalars["stationary_d1"],
		StationaryDiff2: msg.Scalars["stationary_d2"],
		SigLagCount:     msg.Scalars["siglag_count"],
		InsigGapCount:   msg.Scalars["insiggap_count"],
		SeasonalCount:   msg.Scalars["seasonal_count"],
		Skewness:        msg.Scalars["skewness"],
		Kurtosis:        msg.Scalars["kurtosis"],
		FractalDim:      msg.Scalars["fractal"],
		Rate:            timeseries.SamplingRate(int(msg.Scalars["rate"])),
		HistLo:          msg.Scalars["hist_lo"],
		HistHi:          msg.Scalars["hist_hi"],
	}
	cf.SigLags = append([]int(nil), msg.Ints["sig_lags"]...)
	strengths := msg.Floats["season_strengths"]
	for i, p := range msg.Ints["season_periods"] {
		s := 0.0
		if i < len(strengths) {
			s = strengths[i]
		}
		cf.Seasonal = append(cf.Seasonal, tsa.SeasonalComponent{Period: p, Strength: s})
	}
	cf.Histogram = append([]float64(nil), msg.Floats["histogram"]...)
	return cf
}

// roundTripError annotates protocol decode failures with their phase.
func roundTripError(phase string, err error) error {
	return fmt.Errorf("core: %s round: %w", phase, err)
}
