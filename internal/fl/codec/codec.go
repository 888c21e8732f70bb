package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Wire format v1 (see DESIGN.md "Wire format v1" for the byte-layout
// table). A frame is:
//
//	byte 0      version (0x01)
//	byte 1      flags: bits 2..1 = quantization mode the encoder
//	            applied; every other bit must be clear
//	bytes 2...  body
//
// The body:
//
//	str(Kind)
//	uvarint nScalars; nScalars × { str(key), varfloat(value) }   sorted by key
//	uvarint nFloats;  nFloats  × { str(key), vector }            sorted by key
//	uvarint nStrings; nStrings × { str(key), str(value) }        sorted by key
//	uvarint nInts;    nInts    × { str(key), uvarint n, n × svarint } sorted
//
// where
//
//	str      = uvarint form selector v, then
//	           v<96:  nothing — the string is vocab[v], the protocol
//	                  intern table (the codec-level generalization of
//	                  the round protocol's ship-once trick: schema
//	                  strings ship zero times because both ends
//	                  compiled them in)
//	           v=96:  uvarint p, uvarint index — the string
//	                  itoa(p) + ":" + vocab[index] (batched-round keys
//	                  like "3:v:alpha" without repeating the stem)
//	           v=97:  uvarint n (even), n/2 raw bytes — a lowercase-hex
//	                  string of n digits packed two per byte (schema
//	                  fingerprints)
//	           v≥98:  v−98 raw bytes
//	uvarint  = unsigned LEB128 (encoding/binary varint)
//	svarint  = zigzag-signed LEB128
//	varfloat = uvarint of the byte-reversed IEEE 754 bits — round
//	           numbers and small magnitudes have low-entropy trailing
//	           mantissa bytes, which byte reversal turns into leading
//	           zeros the varint drops (the same trick gob uses)
//	qfloat   = lossless tier: varfloat. Lossy tiers: 2 bytes LE of the
//	           value's binary16 round-to-nearest bits; values binary16
//	           cannot hold (NaN, ±Inf, |x| > 65504) ship the escape
//	           pattern 0x7c01 (a binary16 NaN the rounder never emits)
//	           followed by a full-precision varfloat
//	vector   = tag byte, then
//	           0x00 dense:   uvarint n, n × qfloat
//	           0x01 int8:    uvarint n, varfloat offset, qfloat scale,
//	                         n × uint8 level
//	           0x02 float16: uvarint n, n × uint16 little-endian
//
// Scalars and dense vector elements are qfloats: under a lossy tier
// they ship as binary16 — full-entropy statistics shrink from ~9
// varfloat bytes to 2 while staying inside the same float16 error
// bound the quantized tensors document, and ineligible values ship at
// full precision behind the escape. The lossless tier never rounds
// anything. An int8 tensor's offset is always a full-precision
// varfloat — it must be exact for the constant-tensor guarantee — but
// its scale is pre-rounded up to a binary16 value by quantInt8, so
// the qfloat encoding is exact for it (Int8RangeError documents the
// slightly wider step).
//
// Sorted-key emission makes encoding deterministic: equal messages
// produce equal bytes, so Result.Comms is replayable and golden wire
// fixtures are pinnable. Decode tolerates any key order (and trailing
// flag bits it does not understand it rejects), never panics, and
// requires the frame to be fully consumed.

// Version1 identifies the binary wire format this package encodes. It
// is byte 0 of every frame, and Decode rejects any other value: that
// byte is what turns away a peer speaking a foreign format.
const Version1 = 1

// QuantMode selects the lossy tier applied to float vectors of at
// least quantMinLen elements; shorter vectors and ineligible tensors
// (non-finite values, float16 overflow) stay dense regardless.
type QuantMode uint8

const (
	// QuantNone keeps every float vector dense: the lossless tier,
	// golden-pinned bit-identical to the engine's recorded histories.
	QuantNone QuantMode = 0
	// QuantInt8 maps eligible tensors onto 255 uniform levels with a
	// per-tensor offset/scale header: 1 byte per element, error ≤
	// Int8RangeError × (max−min).
	QuantInt8 QuantMode = 1
	// QuantFloat16 stores eligible tensors as IEEE 754 binary16:
	// 2 bytes per element, relative error ≤ Float16RelError.
	QuantFloat16 QuantMode = 2
)

// flags byte layout.
const (
	quantShift    = 1
	quantFlagMask = 0x06
)

// vector tags.
const (
	tagDense   = 0x00
	tagInt8    = 0x01
	tagFloat16 = 0x02
)

// ErrMalformed wraps every decode failure, so transports can
// distinguish codec corruption from I/O errors with errors.Is.
var ErrMalformed = errors.New("codec: malformed frame")

// Encode serializes the message as a version-1 frame under the given
// quantization tier. Encoding cannot fail: every Message value has a
// representation.
func Encode(m Message, q QuantMode) []byte {
	return AppendEncode(nil, m, q)
}

// AppendEncode appends the encoded frame to dst and returns the
// extended slice, for callers reusing buffers or framing the message
// behind their own header.
func AppendEncode(dst []byte, m Message, q QuantMode) []byte {
	dst = append(dst, Version1, byte(q)<<quantShift)
	return appendBody(dst, m, q)
}

// EncodedSize returns the exact frame length Encode would produce —
// the number the communication accounting bills.
func EncodedSize(m Message, q QuantMode) int {
	return len(AppendEncode(nil, m, q))
}

// appendBody serializes the body sections in canonical order.
func appendBody(b []byte, m Message, q QuantMode) []byte {
	b = appendString(b, m.Kind)

	b = binary.AppendUvarint(b, uint64(len(m.Scalars)))
	for _, k := range sortedKeys(m.Scalars) {
		b = appendString(b, k)
		b = appendFloatQ(b, m.Scalars[k], q)
	}

	b = binary.AppendUvarint(b, uint64(len(m.Floats)))
	for _, k := range sortedKeys(m.Floats) {
		b = appendString(b, k)
		b = appendVector(b, m.Floats[k], q)
	}

	b = binary.AppendUvarint(b, uint64(len(m.Strings)))
	for _, k := range sortedKeys(m.Strings) {
		b = appendString(b, k)
		b = appendString(b, m.Strings[k])
	}

	b = binary.AppendUvarint(b, uint64(len(m.Ints)))
	for _, k := range sortedKeys(m.Ints) {
		b = appendString(b, k)
		v := m.Ints[k]
		b = binary.AppendUvarint(b, uint64(len(v)))
		for _, x := range v {
			b = binary.AppendVarint(b, int64(x))
		}
	}
	return b
}

// sortedKeys returns the map's keys in ascending order — the
// collect-then-sort idiom that launders map iteration order into a
// deterministic emission sequence.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// string form selectors (see the package doc's str grammar). Selectors
// below strFormPrefixed are direct intern-table references, so every
// vocab entry costs a single byte; the vocab size test pins the table
// under that ceiling.
const (
	strFormPrefixed = 96 // decimal prefix + ":" + vocab table reference
	strFormHex      = 97 // lowercase hex digits packed two per byte
	strFormRawBase  = 98 // selector v ≥ 98 means v−98 raw bytes follow
)

// hexPackable reports whether s is worth shipping as packed hex:
// even-length lowercase hexadecimal of at least minHexPack digits
// (below that the saving over raw is a byte or two and most short hex
// lookalikes are ordinary words).
const minHexPack = 8

func hexPackable(s string) bool {
	if len(s) < minHexPack || len(s)%2 != 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if hexVal(s[i]) < 0 {
			return false
		}
	}
	return true
}

// hexVal returns the value of a lowercase hex digit, or -1.
func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return -1
	}
}

const lowerHexDigits = "0123456789abcdef"

// appendString emits a string in its most compact form: an intern
// table reference when the protocol vocabulary contains it, a
// prefix+stem reference for batched-round keys like "3:v:alpha", a
// packed-hex form for fingerprints, and a raw length-prefixed form
// otherwise. The choice depends only on the string's content, so
// encoding stays deterministic.
func appendString(b []byte, s string) []byte {
	if idx, ok := vocabIndex[s]; ok {
		return binary.AppendUvarint(b, uint64(idx))
	}
	if c := strings.IndexByte(s, ':'); c > 0 && c <= 19 {
		if idx, ok := vocabIndex[s[c+1:]]; ok {
			// The prefix must survive a decimal round trip (no leading
			// zeros, no overflow) or the decoder would reconstruct a
			// different string.
			if p, err := strconv.ParseUint(s[:c], 10, 64); err == nil && strconv.FormatUint(p, 10) == s[:c] {
				b = binary.AppendUvarint(b, strFormPrefixed)
				b = binary.AppendUvarint(b, p)
				return binary.AppendUvarint(b, uint64(idx))
			}
		}
	}
	if hexPackable(s) {
		b = binary.AppendUvarint(b, strFormHex)
		b = binary.AppendUvarint(b, uint64(len(s)))
		for i := 0; i < len(s); i += 2 {
			b = append(b, byte(hexVal(s[i])<<4|hexVal(s[i+1])))
		}
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(s))+strFormRawBase)
	return append(b, s...)
}

// appendFloat emits a varfloat: the byte-reversed IEEE 754 bits as a
// uvarint.
func appendFloat(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// f16Escape is the qfloat escape pattern: a binary16 NaN encoding
// float16Bits can never produce for an eligible value (eligible values
// are finite, so their exponent field is below 0x1f).
const f16Escape = 0x7c01

// f16Eligible reports whether binary16 can hold x within the float16
// error bound: finite and inside binary16's finite range. The negated
// comparison is NaN-safe.
func f16Eligible(x float64) bool {
	return math.Abs(x) <= float16Max
}

// appendFloatQ emits a qfloat: a full-precision varfloat under the
// lossless tier, binary16 bits (or the escaped varfloat for values
// binary16 cannot hold) under the lossy tiers.
func appendFloatQ(b []byte, f float64, q QuantMode) []byte {
	if q == QuantNone {
		return appendFloat(b, f)
	}
	if f16Eligible(f) {
		return binary.LittleEndian.AppendUint16(b, float16Bits(f))
	}
	b = binary.LittleEndian.AppendUint16(b, f16Escape)
	return appendFloat(b, f)
}

// appendVector emits one float vector in the cheapest eligible form
// for the quantization mode.
func appendVector(b []byte, v []float64, q QuantMode) []byte {
	switch {
	case q == QuantInt8 && int8Quantizable(v):
		offset, scale, levels := quantInt8(v)
		b = append(b, tagInt8)
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = appendFloat(b, offset)
		b = appendFloatQ(b, scale, q) // binary16-exact by construction

		return append(b, levels...)
	case q == QuantFloat16 && float16Quantizable(v):
		b = append(b, tagFloat16)
		b = binary.AppendUvarint(b, uint64(len(v)))
		for _, h := range quantFloat16(v) {
			b = binary.LittleEndian.AppendUint16(b, h)
		}
		return b
	default:
		b = append(b, tagDense)
		b = binary.AppendUvarint(b, uint64(len(v)))
		for _, x := range v {
			b = appendFloatQ(b, x, q)
		}
		return b
	}
}

// Decode parses a version-1 frame. It returns the message in
// canonical (Normalize) form: payload maps are always non-nil and
// zero-length vectors decode as nil values under their key. Malformed
// input — truncation, unknown version or flags, overlong lengths,
// trailing bytes — returns an error wrapping ErrMalformed; Decode
// never panics (FuzzCodecDecode enforces this).
func Decode(data []byte) (Message, error) {
	if len(data) < 2 {
		return Message{}, fmt.Errorf("%w: %d-byte frame", ErrMalformed, len(data))
	}
	if data[0] != Version1 {
		return Message{}, fmt.Errorf("%w: unknown wire version %d", ErrMalformed, data[0])
	}
	flags := data[1]
	if flags&^quantFlagMask != 0 {
		return Message{}, fmt.Errorf("%w: unknown flag bits 0x%02x", ErrMalformed, flags)
	}
	if q := QuantMode(flags >> quantShift & 0x3); q > QuantFloat16 {
		return Message{}, fmt.Errorf("%w: unknown quant mode %d", ErrMalformed, q)
	}
	d := decoder{buf: data[2:], lossy: flags&quantFlagMask != 0}
	m, err := d.message()
	if err != nil {
		return Message{}, err
	}
	if d.pos != len(d.buf) {
		return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf)-d.pos)
	}
	return m, nil
}

// decoder is a bounds-checked cursor over one frame body. lossy
// mirrors the frame's quantization flag: it selects the qfloat
// parsing for scalars and dense vector elements.
type decoder struct {
	buf   []byte
	pos   int
	lossy bool
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrMalformed, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) svarint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrMalformed, d.pos)
	}
	d.pos += n
	return v, nil
}

// count reads an element count and sanity-checks it against the bytes
// that could possibly back it (each element costs ≥ perElem bytes), so
// corrupt frames cannot induce huge allocations.
func (d *decoder) count(perElem int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()/perElem) {
		return 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrMalformed, v, d.remaining())
	}
	return int(v), nil
}

func (d *decoder) string() (string, error) {
	form, err := d.uvarint()
	if err != nil {
		return "", err
	}
	switch {
	case form < strFormPrefixed:
		if form >= uint64(len(vocab)) {
			return "", fmt.Errorf("%w: intern index %d out of range", ErrMalformed, form)
		}
		return vocab[form], nil
	case form == strFormPrefixed:
		p, err := d.uvarint()
		if err != nil {
			return "", err
		}
		idx, err := d.uvarint()
		if err != nil {
			return "", err
		}
		if idx >= uint64(len(vocab)) {
			return "", fmt.Errorf("%w: intern index %d out of range", ErrMalformed, idx)
		}
		return strconv.FormatUint(p, 10) + ":" + vocab[idx], nil
	case form == strFormHex:
		n, err := d.uvarint()
		if err != nil {
			return "", err
		}
		if n%2 != 0 || n/2 > uint64(d.remaining()) {
			return "", fmt.Errorf("%w: bad packed-hex length %d", ErrMalformed, n)
		}
		out := make([]byte, 0, n)
		for _, b := range d.buf[d.pos : d.pos+int(n/2)] {
			out = append(out, lowerHexDigits[b>>4], lowerHexDigits[b&0xf])
		}
		d.pos += int(n / 2)
		return string(out), nil
	default:
		n := int(form - strFormRawBase)
		if form-strFormRawBase > uint64(d.remaining()) {
			return "", fmt.Errorf("%w: string length %d exceeds %d remaining bytes", ErrMalformed, n, d.remaining())
		}
		s := string(d.buf[d.pos : d.pos+n])
		d.pos += n
		return s, nil
	}
}

func (d *decoder) float() (float64, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits.ReverseBytes64(v)), nil
}

// floatQ parses a qfloat: a varfloat on lossless frames, binary16
// bits (with the full-precision escape) on lossy ones.
func (d *decoder) floatQ() (float64, error) {
	if !d.lossy {
		return d.float()
	}
	if d.remaining() < 2 {
		return 0, fmt.Errorf("%w: truncated binary16 value", ErrMalformed)
	}
	h := binary.LittleEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	if h == f16Escape {
		return d.float()
	}
	return float16Value(h), nil
}

func (d *decoder) vector() ([]float64, error) {
	if d.remaining() < 1 {
		return nil, fmt.Errorf("%w: missing vector tag", ErrMalformed)
	}
	tag := d.buf[d.pos]
	d.pos++
	switch tag {
	case tagDense:
		n, err := d.count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]float64, n)
		for i := range out {
			if out[i], err = d.floatQ(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagInt8:
		n, err := d.count(1)
		if err != nil {
			return nil, err
		}
		offset, err := d.float()
		if err != nil {
			return nil, err
		}
		scale, err := d.floatQ()
		if err != nil {
			return nil, err
		}
		if d.remaining() < n {
			return nil, fmt.Errorf("%w: truncated int8 tensor", ErrMalformed)
		}
		levels := d.buf[d.pos : d.pos+n]
		d.pos += n
		return dequantInt8(offset, scale, levels), nil
	case tagFloat16:
		n, err := d.count(2)
		if err != nil {
			return nil, err
		}
		halves := make([]uint16, n)
		for i := range halves {
			halves[i] = binary.LittleEndian.Uint16(d.buf[d.pos:])
			d.pos += 2
		}
		return dequantFloat16(halves), nil
	default:
		return nil, fmt.Errorf("%w: unknown vector tag 0x%02x", ErrMalformed, tag)
	}
}

func (d *decoder) message() (Message, error) {
	m := Message{
		Scalars: map[string]float64{},
		Floats:  map[string][]float64{},
		Strings: map[string]string{},
		Ints:    map[string][]int{},
	}
	var err error
	if m.Kind, err = d.string(); err != nil {
		return m, err
	}

	nScalars, err := d.count(2) // key len byte + ≥1 varfloat byte
	if err != nil {
		return m, err
	}
	for i := 0; i < nScalars; i++ {
		k, err := d.string()
		if err != nil {
			return m, err
		}
		if m.Scalars[k], err = d.floatQ(); err != nil {
			return m, err
		}
	}

	nFloats, err := d.count(2) // key len byte + tag byte
	if err != nil {
		return m, err
	}
	for i := 0; i < nFloats; i++ {
		k, err := d.string()
		if err != nil {
			return m, err
		}
		if m.Floats[k], err = d.vector(); err != nil {
			return m, err
		}
	}

	nStrings, err := d.count(2)
	if err != nil {
		return m, err
	}
	for i := 0; i < nStrings; i++ {
		k, err := d.string()
		if err != nil {
			return m, err
		}
		if m.Strings[k], err = d.string(); err != nil {
			return m, err
		}
	}

	nInts, err := d.count(2)
	if err != nil {
		return m, err
	}
	for i := 0; i < nInts; i++ {
		k, err := d.string()
		if err != nil {
			return m, err
		}
		n, err := d.count(1)
		if err != nil {
			return m, err
		}
		var v []int
		if n > 0 {
			v = make([]int, n) //lint:allow hotalloc the decoded slice is retained by the returned message; a shared buffer would alias messages
			for j := range v {
				x, err := d.svarint()
				if err != nil {
					return m, err
				}
				v[j] = int(x)
			}
		}
		m.Ints[k] = v
	}
	return m, nil
}
