package codec

import "math"

// Quantization of float vectors. Both modes are per-tensor and
// self-describing on the wire; both are gated behind eligibility
// checks so a vector that cannot be represented within the documented
// bound falls back to the dense (lossless) form — Decode never needs
// to know which gate fired, it just reads the tag.
//
// Documented error bounds (property-tested in quant_test.go):
//
//   - int8:    |dequant(quant(x)) − x| ≤ (max−min)/508 + 2⁻²⁵ per
//     element — half the quantization step of 255 uniform levels
//     spanning the tensor's [min, max] range, widened by the scale
//     shipping as a rounded-up binary16 (factor ≤ 1+2⁻¹⁰, plus the
//     subnormal ulp), plus float64 rounding slop.
//   - float16: |dequant(quant(x)) − x| ≤ max(|x|·2⁻¹¹, 2⁻²⁵) per
//     element — half-ULP of IEEE 754 binary16 round-to-nearest for
//     normal values, absolute 2⁻²⁵ in the subnormal range.

// quantMinLen is the shortest float vector tensor quantization
// applies to: per-tensor offset/scale headers only pay for themselves
// on real tensors (weight vectors, loss batches, histograms,
// importances). Shorter vectors — hyper-parameter values, seasonal
// strengths — ship dense, where the lossy tier still applies the
// per-element binary16 rounding of denseRound.
const quantMinLen = 8

// Int8RangeError is the int8 tier's error bound as a fraction of the
// tensor's value range: |error| ≤ Int8RangeError · (max − min) +
// Float16SubnormalAbsError. The denominator is 508 rather than 510
// because the per-tensor scale ships as a rounded-up binary16, which
// widens the quantization step by at most a factor of 1+2⁻¹⁰ (and by
// the 2⁻²⁴ subnormal ulp for vanishingly small ranges — the additive
// term).
//
//lint:allow deadexport documented error bound of the wire format; the quantizer tests assert it
const Int8RangeError = 1.0 / 508

// Float16RelError is the float16 tier's relative error bound for
// values in the binary16 normal range.
//
//lint:allow deadexport documented error bound of the wire format; the quantizer tests assert it
const Float16RelError = 1.0 / 2048 // 2⁻¹¹

// Float16SubnormalAbsError is the float16 tier's absolute error bound
// for values below the binary16 normal range.
//
//lint:allow deadexport documented error bound of the wire format; the quantizer tests assert it
const Float16SubnormalAbsError = 1.0 / (1 << 25)

// float16Max is the largest finite binary16 value.
const float16Max = 65504

// int8Quantizable reports whether v may be int8-quantized: long
// enough, every element finite, and a representable range.
func int8Quantizable(v []float64) bool {
	if len(v) < quantMinLen {
		return false
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	// The scale (hi−lo)/255 must itself be finite.
	return !math.IsInf(hi-lo, 0)
}

// quantInt8 maps v onto 255 uniform levels over [min, max], returning
// the per-tensor offset (min), scale, and one byte per element. The
// scale is (max−min)/255 rounded up to the next binary16-representable
// value, so it ships in 2 bytes; rounding up (never down) keeps hi
// inside the 255-level span and only widens the error bound by the
// rounding factor. Callers must have checked int8Quantizable.
func quantInt8(v []float64) (offset, scale float64, q []byte) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	offset = lo
	q = make([]byte, len(v))
	if !(hi > lo) {
		return offset, 0, q // constant tensor: all levels 0, dequant exact
	}
	scale = f16Ceil((hi - lo) / 255)
	for i, x := range v {
		level := math.Round((x - offset) / scale)
		if level < 0 {
			level = 0
		}
		if level > 255 {
			level = 255
		}
		q[i] = byte(level)
	}
	return offset, scale, q
}

// f16Ceil rounds a positive value up to the smallest
// binary16-representable value that is ≥ x. Values beyond binary16's
// finite range return unchanged (the encoder ships them escaped at
// full precision). For x ≤ float16Max the increment cannot overflow:
// round-to-nearest lands at most on 65504's bit pattern, and that is
// only reached when x ≤ 65504 already.
func f16Ceil(x float64) float64 {
	if x > float16Max {
		return x
	}
	h := float16Bits(x)
	if float16Value(h) < x {
		h++
	}
	return float16Value(h)
}

// dequantInt8 reverses quantInt8.
func dequantInt8(offset, scale float64, q []byte) []float64 {
	out := make([]float64, len(q))
	for i, b := range q {
		out[i] = offset + float64(scale*float64(b))
	}
	return out
}

// float16Quantizable reports whether v may be float16-quantized: long
// enough, every element finite and within binary16's finite range
// (overflow would round to ±Inf, breaking the bounded-error contract).
func float16Quantizable(v []float64) bool {
	if len(v) < quantMinLen {
		return false
	}
	for _, x := range v {
		if math.IsNaN(x) || math.Abs(x) > float16Max {
			return false
		}
	}
	return true
}

// float16Bits converts a float64 to IEEE 754 binary16 bits with
// round-to-nearest-even, the conversion hardware FP units implement.
// Callers must have checked the value is finite and |x| ≤ 65504.
func float16Bits(x float64) uint16 {
	b := math.Float64bits(x)
	sign := uint16(b>>48) & 0x8000
	exp := int((b>>52)&0x7ff) - 1023 // unbiased binary64 exponent
	mant := b & 0x000fffffffffffff

	switch {
	case exp >= -14:
		// Normal binary16 range: 10 explicit mantissa bits, bias 15.
		// Round the 42 dropped mantissa bits to nearest-even.
		half := uint16((exp+15)<<10) | uint16(mant>>42)
		rem := mant & ((1 << 42) - 1)
		const mid = 1 << 41
		if rem > mid || (rem == mid && half&1 == 1) {
			half++ // mantissa overflow carries into the exponent correctly
		}
		return sign | half
	case exp >= -25:
		// Subnormal binary16: value = significand · 2⁻²⁴ with the
		// implicit leading 1 made explicit before shifting.
		full := mant | (1 << 52)
		shift := uint(-exp - 14 + 42) // 43..53
		half := uint16(full >> shift)
		rem := full & ((uint64(1) << shift) - 1)
		mid := uint64(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		// |x| < 2⁻²⁵ is below half the smallest subnormal and rounds
		// to signed zero; the error is |x| < 2⁻²⁵, within the bound.
		return sign
	}
}

// float16Value expands IEEE 754 binary16 bits to float64, exactly.
func float16Value(h uint16) float64 {
	sign := float64(1)
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h>>10) & 0x1f
	mant := int(h & 0x3ff)
	switch exp {
	case 0:
		return sign * float64(mant) * 0x1p-24
	case 0x1f:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	default:
		return sign * math.Ldexp(float64(1024+mant), exp-15-10)
	}
}

// quantFloat16 converts each element to binary16 bits. Callers must
// have checked float16Quantizable.
func quantFloat16(v []float64) []uint16 {
	out := make([]uint16, len(v))
	for i, x := range v {
		out[i] = float16Bits(x)
	}
	return out
}

// dequantFloat16 reverses quantFloat16.
func dequantFloat16(h []uint16) []float64 {
	out := make([]float64, len(h))
	for i, b := range h {
		out[i] = float16Value(b)
	}
	return out
}
