package codec

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format fixtures")

// goldenCases pins the v1 byte format: any change to the encoding —
// section order, varint scheme, vector tags, quantization layout —
// fails these comparisons loudly and demands a version bump, not a
// fixture refresh.
func goldenCases() []struct {
	name  string
	msg   Message
	quant QuantMode
} {
	fix := fixtureMessages()
	return []struct {
		name  string
		msg   Message
		quant QuantMode
	}{
		{"empty.v1", fix[0], QuantNone},
		{"range.v1", fix[1], QuantNone},
		{"config.v1", fix[2], QuantNone},
		{"odd.v1", fix[4], QuantNone},
		{"graph.v1", fix[5], QuantNone},
		{"tensors.v1", fix[3], QuantNone},
		{"tensors.v1q8", fix[3], QuantInt8},
	}
}

// goldenPath returns the fixture file for a case name.
func goldenPath(name string) string {
	return filepath.Join("testdata", name+".hex")
}

// readGolden loads one pinned frame (hex, whitespace-insensitive).
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("reading golden %s (run `go test -run TestGoldenWireFormat -update` to generate): %v", name, err)
	}
	data, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("golden %s is not hex: %v", name, err)
	}
	return data
}

// TestGoldenWireFormat: every canonical fixture encodes to its pinned
// byte sequence.
func TestGoldenWireFormat(t *testing.T) {
	for _, c := range goldenCases() {
		got := Encode(c.msg, c.quant)
		if *updateGolden {
			// 32 hex bytes per line keeps the fixtures diffable.
			var sb strings.Builder
			for i := 0; i < len(got); i += 32 {
				end := i + 32
				if end > len(got) {
					end = len(got)
				}
				sb.WriteString(hex.EncodeToString(got[i:end]))
				sb.WriteByte('\n')
			}
			if err := os.WriteFile(goldenPath(c.name), []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := readGolden(t, c.name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: frame changed\nwant %x\ngot  %x", c.name, want, got)
		}
	}
}

// TestGoldenDecode: the pinned v1 bytes decode to the expected
// messages — the forward-reader guarantee that any future codec can
// still read frames produced by this version.
func TestGoldenDecode(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating fixtures")
	}
	for _, c := range goldenCases() {
		got, err := Decode(readGolden(t, c.name))
		if err != nil {
			t.Fatalf("%s: pinned frame no longer decodes: %v", c.name, err)
		}
		want := c.msg
		want.Normalize()
		if c.quant == QuantNone {
			if !equalMessages(want, got) {
				t.Errorf("%s: pinned frame decoded to a different message\nwant %#v\ngot  %#v", c.name, want, got)
			}
			continue
		}
		// Quantized pins: exact string/int sections, bounded floats.
		if err := checkLossyMessage(want, got, c.quant); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
