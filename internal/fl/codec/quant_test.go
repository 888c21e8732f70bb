package codec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quantErrorWithinBound checks one element of a decoded vector (or a
// scalar, with orig nil) against the documented error bound for the
// quantization mode, given the original tensor (bounds are per-tensor
// for int8). Under the lossy tier, values that ship dense are
// binary16-rounded when their magnitude fits, so they get the binary16
// bound; non-finite and overflowing values — and everything under the
// lossless tier — must round-trip bit-exactly.
func quantErrorWithinBound(orig []float64, got, want float64, q QuantMode) error {
	exact := math.Float64bits(got) == math.Float64bits(want)
	switch {
	case q == QuantInt8 && int8Quantizable(orig):
		lo, hi := orig[0], orig[0]
		for _, x := range orig {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		// 1e-9 relative slack covers float64 rounding in the
		// level→value arithmetic; the subnormal term covers the scale's
		// binary16 round-up for vanishingly small ranges.
		bound := Int8RangeError*(hi-lo) + Float16SubnormalAbsError + 1e-9*math.Max(math.Abs(lo), math.Abs(hi))
		if diff := math.Abs(got - want); !(diff <= bound) {
			return fmt.Errorf("int8 error %g exceeds bound %g (range [%g, %g], want %g, got %g)", diff, bound, lo, hi, want, got)
		}
	case q != QuantNone && math.Abs(want) <= float16Max:
		// Dense qfloats round to binary16: the half-ULP bound.
		bound := math.Max(math.Abs(want)*Float16RelError, Float16SubnormalAbsError)
		if diff := math.Abs(got - want); !(diff <= bound) {
			return fmt.Errorf("binary16 error %g exceeds bound %g (want %g, got %g)", diff, bound, want, got)
		}
	default:
		if !exact {
			return fmt.Errorf("lossless path altered value: want %x, got %x", math.Float64bits(want), math.Float64bits(got))
		}
	}
	return nil
}

// randomTensors draws weight/loss-shaped vectors across the scales the
// protocol ships: unit normals, wide uniforms, tiny magnitudes,
// constants, and mixed-sign spreads.
func randomTensors(rng *rand.Rand, n int) [][]float64 {
	var out [][]float64
	for i := 0; i < n; i++ {
		ln := quantMinLen + rng.Intn(64)
		v := make([]float64, ln)
		switch i % 5 {
		case 0: // unit normal weights
			for j := range v {
				v[j] = rng.NormFloat64()
			}
		case 1: // wide uniform (loss-like magnitudes)
			for j := range v {
				v[j] = rng.Float64() * 5e3
			}
		case 2: // tiny magnitudes (importance-like)
			for j := range v {
				v[j] = rng.NormFloat64() * 1e-6
			}
		case 3: // constant tensor
			c := rng.NormFloat64()
			for j := range v {
				v[j] = c
			}
		case 4: // mixed-sign, mixed-scale
			for j := range v {
				v[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		out = append(out, v)
	}
	return out
}

// TestInt8BoundedErrorProperty: for random tensors,
// |dequant(quant(x)) − x| ≤ Int8RangeError·(max−min) + 2⁻²⁵ per
// element.
func TestInt8BoundedErrorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ti, v := range randomTensors(rng, 200) {
		if !int8Quantizable(v) {
			t.Fatalf("tensor %d unexpectedly ineligible", ti)
		}
		offset, scale, levels := quantInt8(v)
		back := dequantInt8(offset, scale, levels)
		for i := range v {
			if err := quantErrorWithinBound(v, back[i], v[i], QuantInt8); err != nil {
				t.Fatalf("tensor %d elem %d: %v", ti, i, err)
			}
		}
	}
}

// TestInt8ConstantTensorExact: a constant tensor has zero range and
// must dequantize bit-exactly.
func TestInt8ConstantTensorExact(t *testing.T) {
	v := make([]float64, quantMinLen)
	for i := range v {
		v[i] = -17.375
	}
	offset, scale, levels := quantInt8(v)
	if scale != 0 {
		t.Fatalf("constant tensor scale = %g, want 0", scale)
	}
	for i, x := range dequantInt8(offset, scale, levels) {
		if math.Float64bits(x) != math.Float64bits(v[i]) {
			t.Fatalf("elem %d: %g != %g", i, x, v[i])
		}
	}
}

// TestFloat16BoundedErrorProperty: for random tensor elements binary16
// can hold, |float16Value(float16Bits(x)) − x| ≤ max(|x|·2⁻¹¹, 2⁻²⁵) —
// the bound of the lossy tier's dense qfloats.
func TestFloat16BoundedErrorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for ti, v := range randomTensors(rng, 200) {
		for i, x := range v {
			if !f16Eligible(x) {
				continue // the wide-uniform family can exceed binary16's range; such values ship escaped
			}
			if err := quantErrorWithinBound(nil, float16Value(float16Bits(x)), x, QuantInt8); err != nil {
				t.Fatalf("tensor %d elem %d: %v", ti, i, err)
			}
		}
	}
}

// TestFloat16ExactValues: values already representable in binary16
// round-trip bit-exactly, including signed zero, powers of two, the
// largest finite value, and subnormals.
func TestFloat16ExactValues(t *testing.T) {
	exact := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 2, 1024, -1024,
		65504, -65504, 0x1p-14, 0x1p-24, -0x1p-24, 1.5, 0.0999755859375,
	}
	for _, x := range exact {
		got := float16Value(float16Bits(x))
		if math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("representable %g round-tripped to %g", x, got)
		}
	}
}

// TestFloat16RoundToNearestEven pins the tie-breaking behaviour the
// wire format documents.
func TestFloat16RoundToNearestEven(t *testing.T) {
	cases := []struct{ in, want float64 }{
		// 1 + 2⁻¹¹ is exactly halfway between 1 and 1+2⁻¹⁰: ties to even (1).
		{1 + 0x1p-11, 1},
		// 1 + 3·2⁻¹¹ is halfway between 1+2⁻¹⁰ and 1+2⁻⁹: ties to even (1+2⁻⁹).
		{1 + 3*0x1p-11, 1 + 0x1p-9},
		// Just above the halfway point rounds up.
		{1 + 0x1p-11 + 0x1p-30, 1 + 0x1p-10},
		// Below half the smallest subnormal rounds to zero.
		{0x1p-26, 0},
		{-0x1p-26, math.Copysign(0, -1)},
		// Exactly half the smallest subnormal: ties to even (zero).
		{0x1p-25, 0},
		// Just above it rounds to the smallest subnormal.
		{0x1p-25 + 0x1p-60, 0x1p-24},
	}
	for _, c := range cases {
		got := float16Value(float16Bits(c.in))
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("float16(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

// TestQuantEligibilityGates: short vectors and non-finite values
// disable int8 quantization, so those tensors ship dense and their
// non-finite elements round-trip exactly.
func TestQuantEligibilityGates(t *testing.T) {
	short := []float64{1, 2, 3}
	nan := append(make([]float64, quantMinLen-1), math.NaN())
	inf := append(make([]float64, quantMinLen-1), math.Inf(1))
	for name, v := range map[string][]float64{"short": short, "nan": nan, "inf": inf} {
		if int8Quantizable(v) {
			t.Errorf("%s: int8Quantizable = true", name)
		}
	}
	// On the wire: the non-finite element of an ineligible tensor
	// survives each tier bit-exactly.
	m := NewMessage("fit/final")
	m.Floats["weights"] = inf
	for _, q := range allQuants() {
		got, err := Decode(Encode(m, q))
		if err != nil {
			t.Fatalf("quant %d: %v", q, err)
		}
		if w := got.Floats["weights"]; len(w) != len(inf) || !math.IsInf(w[len(w)-1], 1) {
			t.Errorf("quant %d: ineligible element not preserved", q)
		}
	}
}
