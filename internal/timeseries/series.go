// Package timeseries defines the Series value used everywhere in
// FedForecaster: a univariate sequence of chronologically ordered
// observations with an implied sampling rate, optional missing values
// (NaN), linear-interpolation gap filling, chronological train/valid
// splitting, and partitioning of a long series into federated client
// splits. Multivariate series (the paper's future-work direction) are
// supported through exogenous channels.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// SamplingRate describes the spacing of observations. It is carried as
// a meta-feature (Table 1, "Sampling Rate") and used to derive
// calendar features (day-of-week, hour, month) without shipping raw
// timestamps off-client.
type SamplingRate int

// Supported sampling rates.
const (
	RateUnknown SamplingRate = iota
	RateHourly
	RateDaily
	RateWeekly
	RateMonthly
)

// String returns the human-readable name of the sampling rate.
func (r SamplingRate) String() string {
	switch r {
	case RateHourly:
		return "hourly"
	case RateDaily:
		return "daily"
	case RateWeekly:
		return "weekly"
	case RateMonthly:
		return "monthly"
	default:
		return "unknown"
	}
}

// Step returns the duration of one sample, or 0 when unknown. Monthly
// data uses a 30-day approximation, which only affects derived
// calendar features, never values.
func (r SamplingRate) Step() time.Duration {
	switch r {
	case RateHourly:
		return time.Hour
	case RateDaily:
		return 24 * time.Hour
	case RateWeekly:
		return 7 * 24 * time.Hour
	case RateMonthly:
		return 30 * 24 * time.Hour
	default:
		return 0
	}
}

// Series is a univariate time series. Values may contain NaN for
// missing observations. Start anchors the first observation in time;
// when the zero value it is treated as unknown and calendar features
// fall back to positional encodings.
type Series struct {
	Name   string
	Values []float64
	Rate   SamplingRate
	Start  time.Time
	// Exog holds optional exogenous channels (multivariate extension);
	// each channel must have the same length as Values.
	Exog map[string][]float64
}

// New returns a Series with the given name, values, and rate.
func New(name string, values []float64, rate SamplingRate) *Series {
	return &Series{Name: name, Values: values, Rate: rate}
}

// Len returns the number of observations, including missing ones.
func (s *Series) Len() int { return len(s.Values) }

// Clone deep-copies the series.
func (s *Series) Clone() *Series {
	c := &Series{Name: s.Name, Rate: s.Rate, Start: s.Start}
	c.Values = append([]float64(nil), s.Values...)
	if s.Exog != nil {
		c.Exog = make(map[string][]float64, len(s.Exog))
		for k, v := range s.Exog {
			c.Exog[k] = append([]float64(nil), v...)
		}
	}
	return c
}

// TimeAt returns the timestamp of observation i, or the zero time if
// the series start or rate is unknown.
func (s *Series) TimeAt(i int) time.Time {
	if s.Start.IsZero() || s.Rate.Step() == 0 {
		return time.Time{}
	}
	if s.Rate == RateMonthly {
		return s.Start.AddDate(0, i, 0)
	}
	return s.Start.Add(time.Duration(i) * s.Rate.Step())
}

// MissingFraction returns the fraction of NaN values, the Table 1
// "Target Missing Values %" meta-feature.
func (s *Series) MissingFraction() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var miss int
	for _, v := range s.Values {
		if math.IsNaN(v) {
			miss++
		}
	}
	return float64(miss) / float64(len(s.Values))
}

// Interpolate returns a copy with missing values filled by linear
// interpolation between the nearest observed neighbours; leading and
// trailing gaps are filled by extending the nearest observation. A
// fully missing series is filled with zeros. This is the gap handling
// of Section 4.2.
func (s *Series) Interpolate() *Series {
	out := s.Clone()
	vals := out.Values
	n := len(vals)
	prev := -1 // index of the last observed value
	for i := 0; i < n; i++ {
		if math.IsNaN(vals[i]) {
			continue
		}
		if prev == -1 && i > 0 {
			// Leading gap: backfill.
			for j := 0; j < i; j++ {
				vals[j] = vals[i]
			}
		} else if prev >= 0 && i-prev > 1 {
			// Interior gap: linear interpolation.
			span := float64(i - prev)
			for j := prev + 1; j < i; j++ {
				frac := float64(j-prev) / span
				vals[j] = float64(vals[prev]*(1-frac)) + float64(vals[i]*frac)
			}
		}
		prev = i
	}
	if prev == -1 {
		for i := range vals {
			vals[i] = 0
		}
	} else if prev < n-1 {
		// Trailing gap: forward fill.
		for j := prev + 1; j < n; j++ {
			vals[j] = vals[prev]
		}
	}
	return out
}

// Slice returns a view-backed sub-series covering [lo, hi).
func (s *Series) Slice(lo, hi int) *Series {
	if lo < 0 || hi > len(s.Values) || lo > hi {
		//lint:allow panicfree mirrors built-in slice bounds semantics; callers index within Len
		panic(fmt.Sprintf("timeseries: slice [%d,%d) out of range for length %d", lo, hi, len(s.Values)))
	}
	sub := &Series{
		Name:   s.Name,
		Values: s.Values[lo:hi],
		Rate:   s.Rate,
		Start:  s.TimeAt(lo),
	}
	if s.Exog != nil {
		sub.Exog = make(map[string][]float64, len(s.Exog))
		for k, v := range s.Exog {
			sub.Exog[k] = v[lo:hi]
		}
	}
	return sub
}

// PartitionClients cuts the series into n contiguous chronological
// splits ("time-series splits" in the paper's terminology) of
// near-equal length, one per client. It returns an error if any split
// would fall below minPerClient observations — the paper excludes
// configurations with fewer than 500 instances per client.
func (s *Series) PartitionClients(n, minPerClient int) ([]*Series, error) {
	if n < 1 {
		return nil, fmt.Errorf("timeseries: client count %d < 1", n)
	}
	per := len(s.Values) / n
	if per < minPerClient {
		return nil, fmt.Errorf("timeseries: %d clients × %d min instances exceeds series length %d",
			n, minPerClient, len(s.Values))
	}
	out := make([]*Series, n)
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if i == n-1 {
			hi = len(s.Values)
		}
		out[i] = s.Slice(lo, hi)
		out[i].Name = fmt.Sprintf("%s/client%d", s.Name, i)
	}
	return out, nil
}
