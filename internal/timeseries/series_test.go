package timeseries

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestInterpolateInteriorGap(t *testing.T) {
	s := New("x", []float64{1, math.NaN(), math.NaN(), 4}, RateDaily)
	out := s.Interpolate()
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if math.Abs(out.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("interpolated = %v, want %v", out.Values, want)
		}
	}
	// Original untouched.
	if !math.IsNaN(s.Values[1]) {
		t.Error("Interpolate mutated the receiver")
	}
}

func TestInterpolateEdgeGaps(t *testing.T) {
	s := New("x", []float64{math.NaN(), 2, 3, math.NaN(), math.NaN()}, RateDaily)
	out := s.Interpolate()
	want := []float64{2, 2, 3, 3, 3}
	for i := range want {
		if out.Values[i] != want[i] {
			t.Fatalf("interpolated = %v, want %v", out.Values, want)
		}
	}
}

func TestInterpolateAllMissing(t *testing.T) {
	s := New("x", []float64{math.NaN(), math.NaN()}, RateDaily)
	out := s.Interpolate()
	for _, v := range out.Values {
		if v != 0 {
			t.Fatalf("all-missing fill = %v, want zeros", out.Values)
		}
	}
}

func TestMissingFraction(t *testing.T) {
	s := New("x", []float64{1, math.NaN(), 3, math.NaN()}, RateDaily)
	if got := s.MissingFraction(); got != 0.5 {
		t.Errorf("MissingFraction = %v, want 0.5", got)
	}
	if got := New("e", nil, RateDaily).MissingFraction(); got != 0 {
		t.Errorf("empty MissingFraction = %v, want 0", got)
	}
}

func TestPartitionClients(t *testing.T) {
	vals := make([]float64, 103)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := New("x", vals, RateDaily)
	parts, err := s.PartitionClients(5, 10)
	if err != nil {
		t.Fatalf("PartitionClients: %v", err)
	}
	if len(parts) != 5 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	prevEnd := 0.0
	for i, p := range parts {
		total += p.Len()
		if i > 0 && p.Values[0] != prevEnd+1 {
			t.Errorf("part %d does not continue chronologically", i)
		}
		prevEnd = p.Values[p.Len()-1]
	}
	if total != 103 {
		t.Errorf("parts cover %d values, want 103", total)
	}
	// Last part absorbs the remainder.
	if parts[4].Len() != 23 {
		t.Errorf("last part length = %d, want 23", parts[4].Len())
	}
}

func TestPartitionClientsMinInstances(t *testing.T) {
	s := New("x", make([]float64, 100), RateDaily)
	if _, err := s.PartitionClients(5, 500); err == nil {
		t.Error("partition below minimum per-client size should fail")
	}
	if _, err := s.PartitionClients(0, 1); err == nil {
		t.Error("zero clients should fail")
	}
}

func TestTimeAtAndRates(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	s := &Series{Values: make([]float64, 10), Rate: RateDaily, Start: start}
	if got := s.TimeAt(3); !got.Equal(start.AddDate(0, 0, 3)) {
		t.Errorf("TimeAt(3) = %v", got)
	}
	m := &Series{Values: make([]float64, 10), Rate: RateMonthly, Start: start}
	if got := m.TimeAt(2); !got.Equal(start.AddDate(0, 2, 0)) {
		t.Errorf("monthly TimeAt(2) = %v", got)
	}
	u := &Series{Values: make([]float64, 10)}
	if !u.TimeAt(1).IsZero() {
		t.Error("unknown-rate TimeAt should be zero")
	}
	for _, r := range []SamplingRate{RateUnknown, RateHourly, RateDaily, RateWeekly, RateMonthly} {
		if r.String() == "" {
			t.Errorf("rate %d has empty name", r)
		}
	}
}

func TestSliceSharesBackingAndShiftsStart(t *testing.T) {
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	s := &Series{Name: "x", Values: []float64{0, 1, 2, 3, 4}, Rate: RateDaily, Start: start}
	sub := s.Slice(2, 4)
	if sub.Len() != 2 || sub.Values[0] != 2 {
		t.Fatalf("slice = %v", sub.Values)
	}
	if !sub.Start.Equal(start.AddDate(0, 0, 2)) {
		t.Errorf("slice start = %v", sub.Start)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New("x", []float64{1, 2}, RateDaily)
	s.Exog = map[string][]float64{"a": {9, 9}}
	c := s.Clone()
	c.Values[0] = 100
	c.Exog["a"][0] = 100
	if s.Values[0] != 1 || s.Exog["a"][0] != 9 {
		t.Error("Clone is shallow")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	s := &Series{Name: "rt", Values: []float64{1.5, math.NaN(), 3}, Rate: RateDaily, Start: start}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, "rt")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != 3 || got.Values[0] != 1.5 || !math.IsNaN(got.Values[1]) || got.Values[2] != 3 {
		t.Fatalf("round trip values = %v", got.Values)
	}
	if got.Rate != RateDaily {
		t.Errorf("round trip rate = %v, want daily", got.Rate)
	}
	if !got.Start.Equal(start) {
		t.Errorf("round trip start = %v, want %v", got.Start, start)
	}
}

func TestReadCSVValueOnly(t *testing.T) {
	// encoding/csv skips blank lines, so one-column files mark missing
	// observations with "NaN".
	in := "value\n1\n2\nNaN\n4\n"
	s, err := ReadCSV(strings.NewReader(in), "v")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if s.Len() != 4 || !math.IsNaN(s.Values[2]) {
		t.Fatalf("values = %v", s.Values)
	}
	if s.Rate != RateUnknown {
		t.Errorf("rate = %v, want unknown", s.Rate)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	in := "2020-01-01,1\n2020-01-02,2\n"
	s, err := ReadCSV(strings.NewReader(in), "nh")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if s.Len() != 2 || s.Rate != RateDaily {
		t.Fatalf("len=%d rate=%v", s.Len(), s.Rate)
	}
}

func TestReadCSVBadValue(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a\nxyz\n"), "bad"); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := ReadCSV(strings.NewReader(""), "empty"); err == nil {
		t.Error("empty csv accepted")
	}
}

func TestInferRate(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want SamplingRate
	}{
		{time.Hour, RateHourly},
		{24 * time.Hour, RateDaily},
		{7 * 24 * time.Hour, RateWeekly},
		{30 * 24 * time.Hour, RateMonthly},
		{365 * 24 * time.Hour, RateUnknown},
	}
	for _, c := range cases {
		if got := inferRate(c.d); got != c.want {
			t.Errorf("inferRate(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

// Property: interpolation never produces NaN and preserves observed values.
func TestInterpolatePropertyNoNaN(t *testing.T) {
	f := func(raw []float64, missMask []bool) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		vals := make([]float64, n)
		for i := range vals {
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Mod(v, 1e6)
			if i < len(missMask) && missMask[i] {
				vals[i] = math.NaN()
			}
		}
		s := New("p", vals, RateDaily)
		out := s.Interpolate()
		for i, v := range out.Values {
			if math.IsNaN(v) {
				return false
			}
			if !math.IsNaN(vals[i]) && v != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: partitions are a disjoint chronological cover of the series.
func TestPartitionCoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 50 + rng.Intn(500)
		k := 1 + rng.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		s := New("pc", vals, RateDaily)
		parts, err := s.PartitionClients(k, 1)
		if err != nil {
			if n/k >= 1 {
				t.Fatalf("unexpected error: %v", err)
			}
			continue
		}
		idx := 0
		for _, p := range parts {
			for _, v := range p.Values {
				if v != float64(idx) {
					t.Fatalf("partition breaks cover at %d", idx)
				}
				idx++
			}
		}
		if idx != n {
			t.Fatalf("cover = %d values, want %d", idx, n)
		}
	}
}
