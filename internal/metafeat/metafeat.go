// Package metafeat implements the Table 1 meta-features of
// FedForecaster: per-client statistical and time-series fingerprints,
// and their privacy-preserving server-side aggregation (sum / avg /
// min / max / stddev, entropy of stationarity flags across clients,
// and pairwise KL divergence among client value distributions). Only
// scalar statistics and coarse histograms ever leave a client — never
// raw observations.
package metafeat

import (
	"math"
	"sort"

	"fedforecaster/internal/stats"
	"fedforecaster/internal/timeseries"
	"fedforecaster/internal/tsa"
)

// MaxLagScan bounds the pACF lag scan used for the significant-lag
// meta-features and lag feature engineering.
const MaxLagScan = 40

// histBins is the resolution of the value histogram shared with the
// server for cross-client KL divergence.
const histBins = 16

// maxSeasonalComponents bounds the per-client seasonality list.
const maxSeasonalComponents = 3

// ClientFeatures is the fingerprint one client computes over its local
// split (Algorithm 1, lines 3–7). All fields are aggregates — sharing
// them does not reveal individual observations.
type ClientFeatures struct {
	NumInstances    float64
	MissingPct      float64
	Stationary      float64 // 1 when ADF rejects the unit root at 5%
	StationaryDiff1 float64
	StationaryDiff2 float64
	SigLagCount     float64
	InsigGapCount   float64
	SeasonalCount   float64
	Skewness        float64
	Kurtosis        float64
	FractalDim      float64
	Rate            timeseries.SamplingRate

	// SigLags are the client's significant pACF lags; the server uses
	// the per-client counts for Table 1 and the union for lag features.
	SigLags []int
	// Seasonal components detected on this client (period + strength).
	Seasonal []tsa.SeasonalComponent
	// Histogram over [HistLo, HistHi] for server-side KL divergence.
	Histogram      []float64
	HistLo, HistHi float64
}

// ExtractClient computes a client's meta-features. globalLo/globalHi
// define the histogram range; they come from a preliminary min/max
// aggregation round (see ComputeAggregated). The series is
// interpolated first, as in the feature-engineering phase.
func ExtractClient(s *timeseries.Series, globalLo, globalHi float64) ClientFeatures {
	miss := s.MissingFraction()
	filled := s.Interpolate()
	v := filled.Values

	cf := ClientFeatures{
		NumInstances: float64(s.Len()),
		MissingPct:   miss * 100,
		Rate:         s.Rate,
		Skewness:     zeroIfNaN(stats.Skewness(v)),
		Kurtosis:     zeroIfNaN(stats.Kurtosis(v)),
		FractalDim:   zeroIfNaN(tsa.HiguchiFD(v, 10)),
		HistLo:       globalLo,
		HistHi:       globalHi,
	}
	if tsa.IsStationary(v) {
		cf.Stationary = 1
	}
	if d1 := tsa.Difference(v, 1); len(d1) > 0 && tsa.IsStationary(d1) {
		cf.StationaryDiff1 = 1
	}
	if d2 := tsa.Difference(v, 2); len(d2) > 0 && tsa.IsStationary(d2) {
		cf.StationaryDiff2 = 1
	}
	cf.SigLags = tsa.SignificantLags(v, MaxLagScan)
	cf.SigLagCount = float64(len(cf.SigLags))
	cf.InsigGapCount = float64(tsa.InsignificantGapCount(cf.SigLags))
	cf.Seasonal = tsa.DetectSeasonalities(v, maxSeasonalComponents)
	cf.SeasonalCount = float64(len(cf.Seasonal))
	cf.Histogram = stats.Histogram(v, globalLo, globalHi, histBins)
	return cf
}

// Aggregated is the server-side fusion of all client fingerprints —
// the input vector of the meta-model.
type Aggregated struct {
	NumClients   float64
	SamplingRate float64 // ordinal encoding of timeseries.SamplingRate

	Instances       stats.Summary // Sum, Avg, Min, Max, Std
	Missing         stats.Summary // Avg, Min, Max, Std
	Stationary      stats.Summary
	StationaryEntr  float64 // entropy of the stationarity flags across clients
	StationaryDiff1 stats.Summary
	StationaryDiff2 stats.Summary
	SigLags         stats.Summary
	InsigGaps       stats.Summary
	SeasonalCounts  stats.Summary
	Skewness        stats.Summary
	Kurtosis        stats.Summary
	FractalAvg      float64
	PeriodMin       float64 // min/max of detected seasonal periods across clients
	PeriodMax       float64
	KL              stats.Summary // pairwise KL among client distributions

	// GlobalSeasonal is the instance-weighted merge of client seasonal
	// components (Section 4.2.1(4)); it drives Fourier features.
	GlobalSeasonal []tsa.SeasonalComponent
	// GlobalSigLags is the union of client significant lags, capped by
	// the maximum per-client count (Section 4.2.1(3)).
	GlobalSigLags []int
}

// Aggregate fuses the client fingerprints on the server.
func Aggregate(clients []ClientFeatures) Aggregated {
	n := len(clients)
	agg := Aggregated{NumClients: float64(n)}
	if n == 0 {
		return agg
	}
	// The accessors take a pointer: ClientFeatures is a 184-byte struct
	// and this walks it once per scalar meta-feature.
	collect := func(f func(*ClientFeatures) float64) []float64 {
		out := make([]float64, n)
		for i := range clients {
			out[i] = f(&clients[i])
		}
		return out
	}
	agg.SamplingRate = float64(clients[0].Rate)
	stat := collect(func(c *ClientFeatures) float64 { return c.Stationary })
	agg.Instances = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.NumInstances }))
	agg.Missing = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.MissingPct }))
	agg.Stationary = stats.Summarize(stat)
	agg.StationaryEntr = stats.BinaryEntropy(stats.Mean(stat))
	agg.StationaryDiff1 = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.StationaryDiff1 }))
	agg.StationaryDiff2 = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.StationaryDiff2 }))
	agg.SigLags = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.SigLagCount }))
	agg.InsigGaps = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.InsigGapCount }))
	agg.SeasonalCounts = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.SeasonalCount }))
	agg.Skewness = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.Skewness }))
	agg.Kurtosis = stats.Summarize(collect(func(c *ClientFeatures) float64 { return c.Kurtosis }))
	agg.FractalAvg = stats.Mean(collect(func(c *ClientFeatures) float64 { return c.FractalDim }))

	// Seasonal periods: min/max across all client components, plus the
	// instance-weighted merge for feature engineering.
	agg.PeriodMin, agg.PeriodMax = math.NaN(), math.NaN()
	var totalInstances float64
	for i := range clients {
		totalInstances += clients[i].NumInstances
	}
	type pool struct{ periodSum, weight float64 }
	var pools []pool
	for ci := range clients {
		c := &clients[ci]
		w := c.NumInstances / totalInstances
		for _, sc := range c.Seasonal {
			p := float64(sc.Period)
			if math.IsNaN(agg.PeriodMin) || p < agg.PeriodMin {
				agg.PeriodMin = p
			}
			if math.IsNaN(agg.PeriodMax) || p > agg.PeriodMax {
				agg.PeriodMax = p
			}
			placed := false
			for i := range pools {
				mp := pools[i].periodSum / pools[i].weight
				if math.Abs(p-mp) <= 0.1*mp {
					pools[i].periodSum += float64(p * w * sc.Strength)
					pools[i].weight += float64(w * sc.Strength)
					placed = true
					break
				}
			}
			if !placed {
				pools = append(pools, pool{p * w * sc.Strength, w * sc.Strength})
			}
		}
	}
	for _, p := range pools {
		agg.GlobalSeasonal = append(agg.GlobalSeasonal, tsa.SeasonalComponent{
			Period:   int(math.Round(p.periodSum / p.weight)),
			Strength: p.weight,
		})
	}
	sortComponents(agg.GlobalSeasonal)
	if len(agg.GlobalSeasonal) > maxSeasonalComponents {
		agg.GlobalSeasonal = agg.GlobalSeasonal[:maxSeasonalComponents]
	}
	if math.IsNaN(agg.PeriodMin) {
		agg.PeriodMin, agg.PeriodMax = 0, 0
	}

	// Lag union capped by the max per-client significant-lag count.
	maxCount := 0
	lagSet := map[int]int{}
	for ci := range clients {
		c := &clients[ci]
		if len(c.SigLags) > maxCount {
			maxCount = len(c.SigLags)
		}
		for _, l := range c.SigLags {
			lagSet[l]++
		}
	}
	agg.GlobalSigLags = topLags(lagSet, maxCount)

	// Pairwise KL from the shared histograms.
	kls := make([]float64, 0, n*(n-1))
	for i := range clients {
		for j := range clients {
			if i == j {
				continue
			}
			kls = append(kls, stats.KLDivergence(clients[i].Histogram, clients[j].Histogram))
		}
	}
	if len(kls) > 0 {
		agg.KL = stats.Summarize(kls)
	}
	return agg
}

// ComputeAggregated runs the two communication rounds of the online
// meta-learning phase against local client splits: (1) global value
// range for histogram alignment, (2) fingerprint extraction and
// aggregation. It is the reference in-process implementation; the fl
// package runs the same protocol over its transports.
func ComputeAggregated(clients []*timeseries.Series) (Aggregated, []ClientFeatures) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range clients {
		for _, v := range s.Values {
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
	}
	if !(hi > lo) {
		lo, hi = 0, 1
	}
	feats := make([]ClientFeatures, len(clients))
	for i, s := range clients {
		feats[i] = ExtractClient(s, lo, hi)
	}
	return Aggregate(feats), feats
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func sortComponents(cs []tsa.SeasonalComponent) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Strength > cs[j-1].Strength; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// topLags returns up to maxCount lags ordered by (vote count desc,
// lag asc).
func topLags(votes map[int]int, maxCount int) []int {
	type lv struct{ lag, count int }
	all := make([]lv, 0, len(votes))
	for lag, c := range votes {
		all = append(all, lv{lag, c})
	}
	// Total order (count desc, lag asc) so the vote map's iteration
	// order cannot influence which lags make the cut.
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].lag < all[j].lag
	})
	if maxCount > len(all) {
		maxCount = len(all)
	}
	out := make([]int, 0, maxCount)
	for _, l := range all[:maxCount] {
		out = append(out, l.lag)
	}
	// Ascending lags for deterministic feature naming.
	sort.Ints(out)
	return out
}
