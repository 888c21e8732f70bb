package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// equalMessages compares two messages treating NaN payload values as
// equal to themselves (reflect.DeepEqual would not), so lossless
// round-trip checks can include non-finite fixtures.
func equalMessages(a, b Message) bool {
	if a.Kind != b.Kind ||
		len(a.Scalars) != len(b.Scalars) || len(a.Floats) != len(b.Floats) ||
		len(a.Strings) != len(b.Strings) || len(a.Ints) != len(b.Ints) {
		return false
	}
	for k, av := range a.Scalars {
		bv, ok := b.Scalars[k]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	for k, av := range a.Floats {
		bv, ok := b.Floats[k]
		if !ok || len(av) != len(bv) || (av == nil) != (bv == nil) {
			return false
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return reflect.DeepEqual(a.Strings, b.Strings) && reflect.DeepEqual(a.Ints, b.Ints)
}

// checkLossyMessage verifies a decoded message against the original
// under a quantization mode: identical shape and non-float sections,
// and every scalar and float vector element within the mode's
// documented bound (bit-exact under QuantNone).
func checkLossyMessage(want, got Message, q QuantMode) error {
	shape := got
	shape.Floats = want.Floats
	shape.Scalars = want.Scalars
	if !equalMessages(want, shape) {
		return fmt.Errorf("non-float sections diverged")
	}
	if len(got.Scalars) != len(want.Scalars) || len(got.Floats) != len(want.Floats) {
		return fmt.Errorf("float section sizes diverged")
	}
	for k, wv := range want.Scalars {
		gv, ok := got.Scalars[k]
		if !ok {
			return fmt.Errorf("scalar key %q lost", k)
		}
		if err := quantErrorWithinBound(nil, gv, wv, q); err != nil {
			return fmt.Errorf("scalar %q: %w", k, err)
		}
	}
	for k, wv := range want.Floats {
		gv, ok := got.Floats[k]
		if !ok || len(gv) != len(wv) {
			return fmt.Errorf("float key %q lost or resized", k)
		}
		for i := range wv {
			if err := quantErrorWithinBound(wv, gv[i], wv[i], q); err != nil {
				return fmt.Errorf("float %q[%d]: %w", k, i, err)
			}
		}
	}
	return nil
}

// allQuants enumerates every encoder tier the wire can ship.
func allQuants() []QuantMode {
	return []QuantMode{QuantNone, QuantInt8, QuantFloat16}
}

// fixtureMessages is the shared corpus of protocol-shaped and
// adversarially-shaped messages used by the round-trip, golden and
// cross-transport tests.
func fixtureMessages() []Message {
	zero := Message{}

	rangeMsg := NewMessage("props/range")
	rangeMsg.Scalars["lo"] = -3.25
	rangeMsg.Scalars["hi"] = 1821.5
	rangeMsg.Scalars["size"] = 400

	config := NewMessage("eval/config")
	config.Strings["0:algorithm"] = "Lasso"
	config.Strings["0:v:selection"] = "cyclic"
	config.Scalars["0:v:alpha"] = 0.001
	config.Ints["lags"] = []int{1, 2, 3, 7, 14, 28}
	config.Ints["batch"] = []int{4}
	config.Floats["season_strengths"] = []float64{0.1, 0.5}

	tensors := NewMessage("fit/final")
	w := make([]float64, 24)
	l := make([]float64, 12)
	for i := range w {
		w[i] = math.Sin(float64(i)) * 3.5
	}
	for i := range l {
		l[i] = 0.25 + float64(i)*0.125
	}
	tensors.Floats["weights"] = w
	tensors.Floats["losses"] = l
	tensors.Scalars["loss"] = 0.75

	odd := NewMessage("props/metafeatures")
	odd.Kind = "props/metafeatures"
	odd.Scalars[""] = math.NaN()
	odd.Scalars["inf"] = math.Inf(-1)
	odd.Scalars["tiny"] = 5e-324
	odd.Strings["µ≠"] = "значение\x00bytes"
	odd.Strings["empty"] = ""
	odd.Ints["keep"] = nil
	odd.Ints["neg"] = []int{-1, 0, math.MaxInt64, math.MinInt64}
	odd.Floats["short"] = []float64{math.Inf(1)} // below quantMinLen and non-finite: always dense
	odd.Floats["empty"] = []float64{}            // Normalize collapses to nil

	// A structure-search evaluation round: graph-spec categoricals per
	// candidate plus rolling-origin CV settings riding the splits.
	graph := NewMessage("eval/prepare")
	graph.Strings["fingerprint"] = "00f7c2d9aa51e3b4"
	graph.Strings["0:c:g:pre"] = "smooth5"
	graph.Strings["0:c:g:arm2"] = "tree"
	graph.Strings["1:c:g:pre"] = "none"
	graph.Strings["1:c:g:arm2"] = "linear"
	graph.Scalars["cv_folds"] = 3
	graph.Scalars["validation_blocks"] = 2
	graph.Scalars["valid_frac"] = 0.15
	graph.Scalars["test_frac"] = 0.15

	return []Message{zero, rangeMsg, config, tensors, odd, graph}
}

// TestLosslessRoundTripIdentity: decode(encode(m)) == Normalize(m) for
// the lossless tier across the fixture corpus.
func TestLosslessRoundTripIdentity(t *testing.T) {
	for fi, m := range fixtureMessages() {
		got, err := Decode(Encode(m, QuantNone))
		if err != nil {
			t.Fatalf("fixture %d: %v", fi, err)
		}
		want := m
		want.Normalize()
		if !equalMessages(want, got) {
			t.Errorf("fixture %d: round trip diverged\nwant %#v\ngot  %#v", fi, want, got)
		}
	}
}

// TestQuantizedRoundTripShape: under the lossy tiers the decoded
// message keeps the exact key structure, string/int sections, and
// vector lengths; float values may move at most by the documented
// bound.
func TestQuantizedRoundTripShape(t *testing.T) {
	for _, q := range allQuants() {
		for fi, m := range fixtureMessages() {
			got, err := Decode(Encode(m, q))
			if err != nil {
				t.Fatalf("fixture %d quant=%d: %v", fi, q, err)
			}
			want := m
			want.Normalize()
			if err := checkLossyMessage(want, got, q); err != nil {
				t.Errorf("fixture %d quant=%d: %v", fi, q, err)
			}
		}
	}
}

// TestEncodeDeterministic: equal messages produce equal frames, and
// map insertion order is invisible on the wire.
func TestEncodeDeterministic(t *testing.T) {
	build := func(keys []string) Message {
		m := NewMessage("eval/prepare")
		for _, k := range keys {
			n := len(k)
			m.Scalars[k] = float64(n)
			m.Strings[k] = k
			m.Ints[k] = []int{n, -n}
			m.Floats[k] = []float64{float64(n) / 3}
		}
		return m
	}
	keys := []string{"id", "loss", "lo", "hi", "alpha", "flags", "", "weights"}
	a := build(keys)
	rev := make([]string, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	b := build(rev)
	for _, q := range allQuants() {
		ea, eb := Encode(a, q), Encode(b, q)
		if !bytes.Equal(ea, eb) {
			t.Errorf("quant=%d: insertion order leaked into the frame", q)
		}
		if !bytes.Equal(ea, Encode(a, q)) {
			t.Errorf("quant=%d: repeated encode differs", q)
		}
	}
}

// TestEncodedSizeMatchesEncode: the accounting size is the exact frame
// length for every tier.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	for _, q := range allQuants() {
		for fi, m := range fixtureMessages() {
			if got, want := EncodedSize(m, q), len(Encode(m, q)); got != want {
				t.Errorf("fixture %d quant=%d: EncodedSize=%d, len(Encode)=%d", fi, q, got, want)
			}
		}
	}
}

// TestAppendEncodeAppends: AppendEncode extends dst rather than
// replacing it.
func TestAppendEncodeAppends(t *testing.T) {
	m := fixtureMessages()[1]
	prefix := []byte{0xAA, 0xBB}
	out := AppendEncode(prefix, m, QuantNone)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatalf("prefix clobbered: % x", out[:4])
	}
	if !bytes.Equal(out[2:], Encode(m, QuantNone)) {
		t.Fatalf("appended frame differs from Encode")
	}
}

// TestDecodeMalformed: corrupt frames error (wrapping ErrMalformed)
// rather than panicking or over-allocating.
func TestDecodeMalformed(t *testing.T) {
	valid := Encode(fixtureMessages()[2], QuantNone)
	cases := map[string][]byte{
		"empty":            nil,
		"one byte":         {Version1},
		"unknown version":  {0x7f, 0x00},
		"version zero":     {0x00, 0x00},
		"unknown flags":    {Version1, 0xF8},
		"quant mode 3":     {Version1, 0x06},
		"truncated body":   valid[:len(valid)-3],
		"trailing bytes":   append(append([]byte{}, valid...), 0x00),
		"huge count":       {Version1, 0x00, 0x01, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"flag bit 0":       append([]byte{Version1, 0x01}, valid[2:]...),
		"unterminated len": {Version1, 0x00, 0xFF},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("control: valid frame rejected: %v", err)
	}
}

// TestDecodeIsCanonical: whatever the encoder tier, the decoded
// message is already in Normalize's canonical form.
func TestDecodeIsCanonical(t *testing.T) {
	for _, q := range allQuants() {
		for fi, m := range fixtureMessages() {
			got, err := Decode(Encode(m, q))
			if err != nil {
				t.Fatal(err)
			}
			before := got
			got.Normalize()
			if !equalMessages(before, got) {
				t.Errorf("fixture %d quant=%d: decode output not canonical", fi, q)
			}
		}
	}
}
