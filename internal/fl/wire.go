package fl

import (
	"fmt"

	"fedforecaster/internal/fl/codec"
)

// WireOpts selects the payload tier of the v1 codec frames every
// transport speaks. The zero value is lossless v1.
type WireOpts struct {
	// Quant is the lossy tier applied to eligible float vectors. It is
	// an encoder-side choice: any v1 decoder reads any quant mode, so
	// the two ends of a connection may differ.
	Quant codec.QuantMode
}

// Size returns the byte count communication accounting bills for one
// message under these options: the exact encoded frame length.
func (w WireOpts) Size(m Message) int64 {
	return int64(codec.EncodedSize(m, w.Quant))
}

// String renders the options in the -wire flag syntax.
func (w WireOpts) String() string {
	if w.Quant == codec.QuantInt8 {
		return "v1+q8"
	}
	return "v1"
}

// ParseWireOpts parses the -wire flag syntax: "v1" (lossless) or
// "v1+q8" (int8 quantization).
func ParseWireOpts(s string) (WireOpts, error) {
	switch s {
	case "v1":
		return WireOpts{}, nil
	case "v1+q8":
		return WireOpts{Quant: codec.QuantInt8}, nil
	}
	return WireOpts{}, fmt.Errorf("fl: wire %q: want v1 or v1+q8", s)
}

// WireTransport is implemented by transports that know which wire
// format they speak. NewServer consults it so communication accounting
// matches the bytes the transport actually ships; transports without
// it are billed as lossless v1.
type WireTransport interface {
	Transport
	// Wire reports the transport's configured wire options.
	Wire() WireOpts
}
