package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fedforecaster/internal/features"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/tsa"
)

// randomEngineer draws a structurally varied engineer: random lags,
// seasonal components, flags, optional exogenous channels, and a Keep
// restriction that is nil / empty / populated with equal probability.
func randomEngineer(rng *rand.Rand) *features.Engineer {
	e := &features.Engineer{
		UseTrend: rng.Intn(2) == 0,
		UseTime:  rng.Intn(2) == 0,
	}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		e.Lags = append(e.Lags, 1+rng.Intn(48))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		e.Seasonal = append(e.Seasonal, tsa.SeasonalComponent{
			Period:   2 + rng.Intn(96),
			Strength: rng.Float64(),
		})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		e.ExogNames = append(e.ExogNames, fmt.Sprintf("exog%d", i))
	}
	switch rng.Intn(3) {
	case 0: // nil Keep: the full schema
	case 1:
		e.Keep = []int{}
	default:
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			e.Keep = append(e.Keep, rng.Intn(20))
		}
	}
	return e
}

// engineerEqual compares the schema fields encodeEngineer carries,
// treating nil and empty slices as equal except for Keep, whose
// nil-vs-empty distinction is semantic (full schema vs keep nothing).
func engineerEqual(a, b *features.Engineer) bool {
	if (a.Keep == nil) != (b.Keep == nil) {
		return false
	}
	norm := func(e *features.Engineer) *features.Engineer {
		c := *e
		if len(c.Lags) == 0 {
			c.Lags = nil
		}
		if len(c.Seasonal) == 0 {
			c.Seasonal = nil
		}
		if len(c.ExogNames) == 0 {
			c.ExogNames = nil
		}
		if len(c.Keep) == 0 && c.Keep != nil {
			c.Keep = []int{}
		}
		return &c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestEngineerCodecRoundTrip: decodeEngineer ∘ encodeEngineer is the
// identity on randomized schemas, including exogenous channels and all
// three Keep shapes.
func TestEngineerCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		eng := randomEngineer(rng)
		msg := fl.NewMessage(kindEvalPrepare)
		encodeEngineer(&msg, eng)
		got := decodeEngineer(msg)
		if !engineerEqual(eng, got) {
			t.Fatalf("case %d: round trip mismatch\nin  = %+v\nout = %+v", i, eng, got)
		}
	}
}

// TestConfigCodecRoundTrip: every Table 2 space round-trips sampled
// configurations exactly through the indexed codec, at index 0 and at
// a random index.
func TestConfigCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	spaces := search.DefaultSpaces()
	for i := 0; i < 200; i++ {
		cfg := spaces[rng.Intn(len(spaces))].Sample(rng)

		msg := fl.NewMessage(kindEvalConfig)
		encodeConfigAt(&msg, cfg, 0)
		if got := decodeConfigAt(msg, 0); !reflect.DeepEqual(cfg, got) {
			t.Fatalf("case %d: index-0 round trip mismatch: %+v vs %+v", i, cfg, got)
		}

		at := fl.NewMessage(kindEvalConfig)
		idx := rng.Intn(13) // includes multi-digit indices: "1:" vs "11:"
		encodeConfigAt(&at, cfg, idx)
		if got := decodeConfigAt(at, idx); !reflect.DeepEqual(cfg, got) {
			t.Fatalf("case %d: indexed round trip mismatch at %d: %+v vs %+v", i, idx, cfg, got)
		}
	}
}

// TestBatchCodecRoundTrip: whole batches round-trip in order, and
// index prefixes never collide (candidate 1 vs candidate 11).
func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	spaces := search.DefaultSpaces()
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(14) // crosses the single→double digit boundary
		cfgs := make([]search.Config, n)
		for i := range cfgs {
			cfgs[i] = spaces[rng.Intn(len(spaces))].Sample(rng)
		}
		msg := fl.NewMessage(kindEvalConfig)
		encodeBatch(&msg, "fp", cfgs)
		got := decodeBatch(msg)
		if len(got) != n {
			t.Fatalf("trial %d: decoded %d configs, want %d", trial, len(got), n)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(cfgs[i], got[i]) {
				t.Fatalf("trial %d: candidate %d mismatch: %+v vs %+v", trial, i, cfgs[i], got[i])
			}
		}
	}
}

// TestSplitsCodecRoundTrip over randomized fractions.
func TestSplitsCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 100; i++ {
		s := pipeline.Splits{ValidFrac: rng.Float64() / 2, TestFrac: rng.Float64() / 2}
		msg := fl.NewMessage(kindEvalPrepare)
		encodeSplits(&msg, s)
		if got := decodeSplits(msg); got != s {
			t.Fatalf("case %d: %+v vs %+v", i, s, got)
		}
	}
}

// TestEngineerFingerprint: equal schemas fingerprint equally; any
// carried field flipping changes the fingerprint, including the
// semantic nil-vs-empty Keep distinction.
func TestEngineerFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := randomEngineer(rng)
	splits := pipeline.Splits{ValidFrac: 0.15, TestFrac: 0.15}
	fp := engineerFingerprint(base, splits)
	if fp != engineerFingerprint(base, splits) {
		t.Fatal("fingerprint not deterministic")
	}
	clone := *base
	clone.Lags = append([]int(nil), base.Lags...)
	if engineerFingerprint(&clone, splits) != fp {
		t.Error("deep-equal schema fingerprints differently")
	}

	mutations := map[string]func(e *features.Engineer, s *pipeline.Splits){
		"lags":  func(e *features.Engineer, s *pipeline.Splits) { e.Lags = append(e.Lags, 99) },
		"trend": func(e *features.Engineer, s *pipeline.Splits) { e.UseTrend = !e.UseTrend },
		"time":  func(e *features.Engineer, s *pipeline.Splits) { e.UseTime = !e.UseTime },
		"exog":  func(e *features.Engineer, s *pipeline.Splits) { e.ExogNames = append(e.ExogNames, "x") },
		"seasons": func(e *features.Engineer, s *pipeline.Splits) {
			e.Seasonal = append(e.Seasonal, tsa.SeasonalComponent{Period: 7, Strength: 0.5})
		},
		"keep": func(e *features.Engineer, s *pipeline.Splits) {
			if e.Keep == nil {
				e.Keep = []int{} // nil → empty is a schema change
			} else {
				e.Keep = nil
			}
		},
		"splits": func(e *features.Engineer, s *pipeline.Splits) { s.TestFrac = 0.2 },
	}
	for name, mutate := range mutations {
		e := *base
		e.Lags = append([]int(nil), base.Lags...)
		e.Seasonal = append([]tsa.SeasonalComponent(nil), base.Seasonal...)
		e.ExogNames = append([]string(nil), base.ExogNames...)
		if base.Keep != nil {
			e.Keep = append([]int{}, base.Keep...)
		}
		s := splits
		mutate(&e, &s)
		if engineerFingerprint(&e, s) == fp {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

// TestEvalSeedContract: index 0 is the base seed (q=1 ≡ sequential),
// and distinct indices derive distinct streams.
func TestEvalSeedContract(t *testing.T) {
	if evalSeed(12345, 0) != 12345 {
		t.Error("evalSeed(base, 0) must be the base seed")
	}
	seen := map[int64]int{}
	for i := 0; i < 64; i++ {
		s := evalSeed(12345, i)
		if prev, dup := seen[s]; dup {
			t.Errorf("indices %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
}
