package codec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzReader consumes fuzz input bytes as a deterministic stream of
// small typed values; exhausted input yields zeros, so every byte
// string maps to a well-defined message.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) float() float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(r.byte())
	}
	// Interpreting raw bits covers NaN, ±Inf, subnormals and signed
	// zero without any branching in the builder.
	return math.Float64frombits(bits)
}

func (r *fuzzReader) str() string {
	n := int(r.byte()) % 12
	b := make([]byte, n)
	for i := range b {
		b[i] = r.byte()
	}
	return string(b)
}

// buildFuzzMessage derives a message and encoder tier from raw fuzz
// bytes (the first byte's bit 1; bit 0 is unused, which keeps the
// committed seed corpus meaningful). The shape distribution is bounded (≤ 3 entries per section,
// vectors ≤ 19 elements) so the fuzzer spends its budget on value and
// key edge cases rather than on huge allocations.
func buildFuzzMessage(data []byte) (Message, QuantMode) {
	r := &fuzzReader{data: data}
	q := QuantMode(r.byte() >> 1 % 2)
	m := NewMessage(r.str())
	for i := int(r.byte()) % 4; i > 0; i-- {
		m.Scalars[r.str()] = r.float()
	}
	for i := int(r.byte()) % 4; i > 0; i-- {
		v := make([]float64, int(r.byte())%20)
		for j := range v {
			v[j] = r.float()
		}
		m.Floats[r.str()] = v
	}
	for i := int(r.byte()) % 4; i > 0; i-- {
		m.Strings[r.str()] = r.str()
	}
	for i := int(r.byte()) % 4; i > 0; i-- {
		v := make([]int, int(r.byte())%20)
		for j := range v {
			v[j] = int(int8(r.byte())) << (r.byte() % 40)
		}
		m.Ints[r.str()] = v
	}
	return m, q
}

// FuzzMessageRoundTrip: for any message derivable from fuzz bytes,
// the lossless tier round-trips to identity after Normalize(), and
// the lossy tier round-trips to the same shape within the documented
// error bounds.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x04kind\x01\x02lo\x3f\xf0\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{0x02, 0x03, 'f', 'i', 't', 0x00, 0x01, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x05, 0x00, 0x01, 0x13})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, q := buildFuzzMessage(data)
		want := m
		want.Normalize()

		// Lossless identity.
		got, err := Decode(Encode(m, QuantNone))
		if err != nil {
			t.Fatalf("lossless round trip failed: %v", err)
		}
		if !equalMessages(want, got) {
			t.Fatalf("lossless round trip diverged\nwant %#v\ngot  %#v", want, got)
		}

		// Lossy tier: same shape, bounded error.
		got, err = Decode(Encode(m, q))
		if err != nil {
			t.Fatalf("quant %d round trip failed: %v", q, err)
		}
		if err := checkLossyMessage(want, got, q); err != nil {
			t.Fatalf("quant %d: %v", q, err)
		}
	})
}

// flagBit0 returns a copy of frame with flag bit 0 set — a bit no
// encoder sets, so Decode must reject the frame.
func flagBit0(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[1] |= 0x01
	return out
}

// FuzzCodecDecode: Decode must never panic, whatever the bytes; and
// whenever it succeeds, the decoded message must re-encode to a frame
// that decodes back to an equal message (decode output is always
// canonical).
func FuzzCodecDecode(f *testing.F) {
	for _, c := range goldenCases() {
		frame := Encode(c.msg, c.quant)
		f.Add(frame)
		f.Add(flagBit0(frame))
	}
	f.Add([]byte{})
	f.Add([]byte{Version1})
	f.Add([]byte{Version1, 0x00})
	f.Add([]byte{Version1, 0x01, 0x03, 0x00})
	f.Add([]byte{Version1, 0x06})
	f.Add([]byte{0xff, 0xff, 0xff})
	// The retired float16 tier: quant mode 2 on a tensor frame, and a
	// vector under its tag 0x02.
	f.Add(append([]byte{Version1, 0x04}, Encode(fixtureMessages()[3], QuantInt8)[2:]...))
	f.Add(retiredTagFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // malformed input must error, never panic
		}
		again, err := Decode(Encode(m, QuantNone))
		if err != nil {
			t.Fatalf("re-encode of decoded message failed to decode: %v", err)
		}
		if !equalMessages(m, again) {
			t.Fatalf("decoded message not canonical\nfirst  %#v\nsecond %#v", m, again)
		}
	})
}

// TestWriteFuzzCorpus (run with -update) checks the fuzz seeds in
// under testdata/fuzz/, the directory `go test` merges into each
// target's corpus, so CI smoke runs start from protocol-shaped inputs
// instead of empty ones.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateGolden {
		t.Skip("run with -update to regenerate the seed corpus")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var decodeSeeds [][]byte
	for _, c := range goldenCases() {
		frame := Encode(c.msg, c.quant)
		decodeSeeds = append(decodeSeeds, frame, flagBit0(frame))
	}
	decodeSeeds = append(decodeSeeds,
		[]byte{Version1, 0x00},
		[]byte{Version1, 0x02, 0x00, 0x01, 0x01, 'w', 0x01, 0x08},
	)
	write("FuzzCodecDecode", decodeSeeds)
	write("FuzzMessageRoundTrip", [][]byte{
		{},
		[]byte("\x00\x04kind\x01\x02lo\x3f\xf0\x00\x00\x00\x00\x00\x00"),
		{0x02, 0x03, 'f', 'i', 't', 0x00, 0x01, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{0x03, 0x05, 'e', 'v', 'a', 'l', '/', 0x00, 0x02, 0x13, 0x06, 'l', 'o', 's', 's', 'e', 's'},
		{0x05, 0x00, 0x01, 0x13},
	})
}
