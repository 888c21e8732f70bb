package codec

import (
	"encoding/binary"
	"errors"
	"testing"
)

// encodeStr runs one string through the str grammar and back.
func encodeStr(t *testing.T, s string) (wire []byte, back string) {
	t.Helper()
	wire = appendString(nil, s)
	d := decoder{buf: wire}
	back, err := d.string()
	if err != nil {
		t.Fatalf("decode %q (wire % x): %v", s, wire, err)
	}
	if d.pos != len(wire) {
		t.Fatalf("decode %q left %d trailing bytes", s, len(wire)-d.pos)
	}
	return wire, back
}

// TestVocabFitsDirectForm pins the intern table under the direct-form
// ceiling: every entry must be addressable by a single selector byte
// below strFormPrefixed, and growing the table past that is a wire
// format change (bump Version1, regenerate goldens) — not a tweak.
func TestVocabFitsDirectForm(t *testing.T) {
	if len(vocab) > strFormPrefixed {
		t.Fatalf("vocab has %d entries; the direct string form holds at most %d", len(vocab), strFormPrefixed)
	}
	seen := map[string]bool{}
	for i, s := range vocab {
		if seen[s] {
			t.Errorf("vocab[%d] = %q duplicated", i, s)
		}
		seen[s] = true
	}
}

// TestStringInternRoundTrip: every vocab entry ships as exactly one
// byte and round-trips to itself.
func TestStringInternRoundTrip(t *testing.T) {
	for i, s := range vocab {
		wire, back := encodeStr(t, s)
		if len(wire) != 1 {
			t.Errorf("vocab[%d] = %q encoded to %d bytes, want 1", i, s, len(wire))
		}
		if back != s {
			t.Errorf("vocab[%d]: %q round-tripped to %q", i, s, back)
		}
	}
}

// TestStringPrefixedForm covers the batched-round key form and its
// guard rails: only canonical decimal prefixes qualify (leading
// zeros, signs, or non-digits would not survive the itoa round trip
// and must fall back to raw).
func TestStringPrefixedForm(t *testing.T) {
	stem := vocab[0]
	compact := []string{"0:" + stem, "7:" + stem, "123:" + stem, "9999999999999999999:" + stem}
	for _, s := range compact {
		wire, back := encodeStr(t, s)
		if back != s {
			t.Errorf("%q round-tripped to %q", s, back)
		}
		if raw := len(s) + 1; len(wire) >= raw {
			t.Errorf("%q: prefixed form %d bytes, raw form %d", s, len(wire), raw)
		}
	}
	fallback := []string{
		"00:" + stem,                   // leading zero: itoa gives "0"
		"007:" + stem,                  // leading zeros
		"+7:" + stem,                   // sign
		"-1:" + stem,                   // negative
		"18446744073709551615:" + stem, // 20 digits: past the prefix length cap
		"7x:" + stem,                   // non-digit
		":" + stem,                     // empty prefix (IndexByte == 0)
		"7:" + stem + "x",              // stem not in vocab
	}
	for _, s := range fallback {
		wire, back := encodeStr(t, s)
		if back != s {
			t.Errorf("%q round-tripped to %q", s, back)
		}
		// The selector uvarint for strFormPrefixed is the single byte
		// 0x60; any other form's first byte differs (larger selectors
		// carry the varint continuation bit).
		if wire[0] == strFormPrefixed {
			t.Errorf("%q used the prefixed form; must fall back", s)
		}
	}
}

// TestStringHexPackedForm: fingerprint-shaped strings pack two digits
// per byte; odd lengths, uppercase, short strings, and non-hex bytes
// all fall back to raw and still round-trip.
func TestStringHexPackedForm(t *testing.T) {
	packed := []string{"00f7c2d9", "deadbeefdeadbeef", "0123456789abcdef"}
	for _, s := range packed {
		wire, back := encodeStr(t, s)
		if back != s {
			t.Errorf("%q round-tripped to %q", s, back)
		}
		if want := 2 + len(s)/2; len(wire) != want {
			t.Errorf("%q: packed form %d bytes, want %d", s, len(wire), want)
		}
	}
	fallback := []string{"abcdef1", "DEADBEEFDEADBEEF", "abcdeg12", "abc", "", "ффффффф0"}
	for _, s := range fallback {
		if _, back := encodeStr(t, s); back != s {
			t.Errorf("%q round-tripped to %q", s, back)
		}
	}
}

// TestStringMalformedForms: decoder rejections specific to the str
// grammar — an intern index past the table, an odd packed-hex length,
// and truncated bodies — all wrap ErrMalformed.
func TestStringMalformedForms(t *testing.T) {
	uv := binary.AppendUvarint
	cases := map[string][]byte{
		"intern index out of range":    uv(nil, uint64(len(vocab))),
		"prefixed index out of range":  uv(uv(uv(nil, strFormPrefixed), 3), uint64(len(vocab))),
		"prefixed missing index":       uv(uv(nil, strFormPrefixed), 3),
		"odd hex length":               uv(uv(nil, strFormHex), 7),
		"hex body truncated":           append(uv(uv(nil, strFormHex), 8), 0xde),
		"raw body truncated":           append(uv(nil, strFormRawBase+5), 'a', 'b'),
		"empty buffer":                 nil,
		"unterminated selector varint": {0xff},
	}
	for name, wire := range cases {
		d := decoder{buf: wire}
		if _, err := d.string(); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}
