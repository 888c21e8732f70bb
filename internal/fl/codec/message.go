// Package codec defines the federated Message payload type and its
// compact versioned binary wire format. It is the wire layer under
// package fl: fl.Message is an alias of Message here, and both the
// in-process and TCP transports encode every message through this
// package.
//
// Design constraints, in priority order:
//
//  1. Determinism: equal messages encode to equal bytes — map entries
//     are emitted in sorted key order, and no encoding choice depends
//     on iteration order or wall clock. Result.Comms byte counts and
//     the golden wire fixtures rely on this.
//  2. Robustness: Decode never panics, whatever the input; malformed
//     frames return errors (fuzzed by FuzzCodecDecode).
//  3. Compactness: varint lengths, byte-reversed varint float64
//     scalars (gob's trick: small magnitudes and round numbers
//     shrink), zigzag varint ints, an intern table for protocol
//     strings, and optional int8/float16 quantization of float
//     vectors.
package codec

// Message is the unit of client↔server communication: a kind tag plus
// typed payload maps. It is deliberately schema-free (like Flower's
// config/metrics dictionaries) so protocol phases can evolve without
// transport changes.
type Message struct {
	Kind    string
	Scalars map[string]float64
	Floats  map[string][]float64
	Strings map[string]string
	Ints    map[string][]int
}

// NewMessage returns an empty message of the given kind.
func NewMessage(kind string) Message {
	return Message{
		Kind:    kind,
		Scalars: map[string]float64{},
		Floats:  map[string][]float64{},
		Strings: map[string]string{},
		Ints:    map[string][]int{},
	}
}

// Normalize rewrites a message into the canonical form every decoder
// produces: nil payload maps become empty maps (as NewMessage builds
// them), and zero-length slice values become nil — the key survives,
// only the value's nil-vs-empty distinction is erased. Protocol
// semantics may hang off key *presence* (e.g. the engineer schema's
// "keep" key) but never off a present key's empty-vs-nil slice shape:
// decode(encode(m)) == Normalize(m) holds for every quantization tier
// (up to the tier's float rounding). Both transports decode every
// message on receipt, so handlers may index payload maps
// unconditionally.
//
//lint:allow deadexport test oracle: the codec and fl tests compare a decoded message against Normalize of the original
func (m *Message) Normalize() {
	if m.Scalars == nil {
		m.Scalars = map[string]float64{}
	}
	if m.Floats == nil {
		m.Floats = map[string][]float64{}
	} else {
		// maporder audit note: writes through the iterated key into the
		// same map, value independent of order — the exempt shape.
		for k, v := range m.Floats {
			if len(v) == 0 && v != nil {
				m.Floats[k] = nil
			}
		}
	}
	if m.Strings == nil {
		m.Strings = map[string]string{}
	}
	if m.Ints == nil {
		m.Ints = map[string][]int{}
	} else {
		for k, v := range m.Ints {
			if len(v) == 0 && v != nil {
				m.Ints[k] = nil
			}
		}
	}
}
