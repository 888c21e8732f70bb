package fl

import (
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedforecaster/internal/fl/codec"
)

// mirrorClient echoes every request's payload back unchanged, so a
// call observes two wire crossings (request and response) of the same
// message.
type mirrorClient struct{}

func (mirrorClient) Properties(req Message) (Message, error) { return req, nil }
func (mirrorClient) Fit(req Message) (Message, error)        { return req, nil }
func (mirrorClient) Evaluate(req Message) (Message, error)   { return req, nil }

// wireFixtures are the matrix test messages. Float vectors are either
// shorter than the quantization floor (shipped dense) or long, finite
// and within binary16 range (always eligible for both lossy tiers),
// so expected behaviour per tier is unambiguous.
func wireFixtures() []Message {
	plain := Message{} // zero value: nil maps everywhere

	props := NewMessage("props/metafeatures")
	props.Scalars["rate"] = 2
	props.Scalars["skewness"] = -0.75
	props.Strings["name"] = "client-0"
	props.Ints["sig_lags"] = []int{1, 7, 14}
	props.Floats["season_strengths"] = []float64{0.25, 0.5} // short: dense (values binary16-exact)

	fit := NewMessage("fit/final")
	w := make([]float64, 32)
	for i := range w {
		w[i] = math.Cos(float64(i)) * 12.5
	}
	fit.Floats["weights"] = w
	fit.Ints["keep"] = nil
	fit.Floats["empty"] = []float64{}

	return []Message{plain, props, fit}
}

// equalWireMessages compares messages with NaN-tolerant float
// equality (the fl-side twin of the codec package's helper).
func equalWireMessages(a, b Message) bool {
	if a.Kind != b.Kind || len(a.Scalars) != len(b.Scalars) || len(a.Floats) != len(b.Floats) {
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

// wireMatrixOpts enumerates the codec dimension of the matrix: every
// tier the -wire flag accepts.
func wireMatrixOpts() map[string]WireOpts {
	return map[string]WireOpts{
		"v1":     {},
		"v1+q8":  {Quant: codec.QuantInt8},
		"v1+q16": {Quant: codec.QuantFloat16},
	}
}

// checkWireResponse asserts a mirrored fixture against its tier's
// contract: exact identity for lossless tiers, same shape with
// bounded per-element error for quantized ones. The bound is doubled:
// the payload crosses the wire twice (request, response), and while
// both lossy maps are idempotent up to float64 rounding, the matrix
// test does not rely on that.
func checkWireResponse(t *testing.T, label string, sent, got Message, w WireOpts) {
	t.Helper()
	want := sent
	want.Normalize()
	if w.Quant == codec.QuantNone {
		if !equalWireMessages(want, got) {
			t.Errorf("%s: lossless response diverged\nwant %#v\ngot  %#v", label, want, got)
		}
		return
	}
	gotShape := got
	gotShape.Floats = want.Floats
	gotShape.Scalars = want.Scalars
	if !equalWireMessages(want, gotShape) {
		t.Errorf("%s: non-float sections diverged\nwant %#v\ngot  %#v", label, want, gotShape)
	}
	if len(got.Scalars) != len(want.Scalars) {
		t.Fatalf("%s: scalar keys lost", label)
	}
	// Scalars travel dense under every tier: the lossy tiers round them
	// to binary16, so the float16 bound applies.
	f16Bound := func(x float64) float64 {
		return math.Max(math.Abs(x)*codec.Float16RelError, codec.Float16SubnormalAbsError)
	}
	for k, wv := range want.Scalars {
		gv, ok := got.Scalars[k]
		if !ok {
			t.Fatalf("%s: scalar %q lost", label, k)
		}
		if diff := math.Abs(gv - wv); !(diff <= 2*f16Bound(wv)) {
			t.Errorf("%s: scalar %q error %g exceeds bound %g", label, k, diff, 2*f16Bound(wv))
		}
	}
	for k, wv := range want.Floats {
		gv, ok := got.Floats[k]
		if !ok || len(gv) != len(wv) {
			t.Fatalf("%s: float key %q lost or resized", label, k)
		}
		if len(wv) < 8 { // below the quantization floor: dense, binary16-rounded
			for i := range wv {
				if diff := math.Abs(gv[i] - wv[i]); !(diff <= 2*f16Bound(wv[i])) {
					t.Errorf("%s: short vector %q[%d] error %g exceeds bound", label, k, i, diff)
				}
			}
			continue
		}
		lo, hi := wv[0], wv[0]
		for _, x := range wv {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		for i := range wv {
			var bound float64
			if w.Quant == codec.QuantInt8 {
				bound = codec.Int8RangeError*(hi-lo) + codec.Float16SubnormalAbsError
			} else {
				bound = f16Bound(wv[i])
			}
			bound = 2*bound + 1e-9*math.Max(math.Abs(lo), math.Abs(hi))
			if diff := math.Abs(gv[i] - wv[i]); !(diff <= bound) {
				t.Errorf("%s: %q[%d] error %g exceeds bound %g", label, k, i, diff, bound)
			}
		}
	}
}

// startWireTCP brings up a one-client TCP transport where both ends
// speak the given wire options, returning the transport and a cleanup.
func startWireTCP(t *testing.T, server, client WireOpts) *TCPTransport {
	t.Helper()
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	addrCh := make(chan string, 1)
	resCh := make(chan listenResult, 1)
	go func() {
		tr, err := ListenTCP("127.0.0.1:0", 1, 5*time.Second, addrCh, server)
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh
	stop := make(chan struct{})
	go func() { _ = ServeTCP(addr, mirrorClient{}, stop, client) }()
	res := <-resCh
	if res.err != nil {
		close(stop)
		t.Fatal(res.err)
	}
	t.Cleanup(func() {
		close(stop)
		//lint:allow errdrop test teardown
		res.tr.Close()
	})
	return res.tr
}

// TestWireMatrixEquivalence drives every fixture through
// {inproc, TCP} × {v1, v1+q8, v1+q16} and asserts the
// same canonical result in every cell — the PR 4 nil-vs-empty parity
// guarantee extended across wire formats.
func TestWireMatrixEquivalence(t *testing.T) {
	for name, w := range wireMatrixOpts() {
		transports := map[string]Transport{
			"inproc": NewInProcWire([]Client{mirrorClient{}}, w),
			"tcp":    startWireTCP(t, w, w),
		}
		for tname, tr := range transports {
			for fi, fixture := range wireFixtures() {
				got, err := tr.Call(0, fixture)
				if err != nil {
					t.Fatalf("%s/%s fixture %d: %v", name, tname, fi, err)
				}
				checkWireResponse(t, name+"/"+tname, fixture, got, w)
			}
		}
	}
}

// TestWireMatrixCrossTransportAgreement: for each wire format, the
// in-process and TCP transports return byte-identical canonical
// responses for lossless tiers and identical quantized values for
// lossy ones (both ends quantize through the same codec).
func TestWireMatrixCrossTransportAgreement(t *testing.T) {
	for name, w := range wireMatrixOpts() {
		inproc := NewInProcWire([]Client{mirrorClient{}}, w)
		tcp := startWireTCP(t, w, w)
		for fi, fixture := range wireFixtures() {
			a, err := inproc.Call(0, fixture)
			if err != nil {
				t.Fatalf("%s inproc fixture %d: %v", name, fi, err)
			}
			b, err := tcp.Call(0, fixture)
			if err != nil {
				t.Fatalf("%s tcp fixture %d: %v", name, fi, err)
			}
			if !equalWireMessages(a, b) {
				t.Errorf("%s fixture %d: transports disagree\ninproc %#v\ntcp    %#v", name, fi, a, b)
			}
		}
	}
}

// foreignFrame is a lossless codec frame of m whose version byte is
// replaced by vers — what a peer speaking some other format sends.
func foreignFrame(m Message, vers byte) []byte {
	frame := codec.Encode(m, codec.QuantNone)
	frame[0] = vers
	return frame
}

// TestWireForeignPeer: a raw TCP peer whose frames carry a version byte
// other than codec.Version1 (0x00, the byte a pre-codec peer leads
// with, and 0x02, a future format) is rejected by the frame's own
// version byte in both directions. As a client it makes the server's
// call fail with ErrClientDead, and the next call fails fast; as a
// server it makes ServeTCP return an error wrapping codec.ErrMalformed
// and close the connection. Nothing panics.
func TestWireForeignPeer(t *testing.T) {
	fixture := wireFixtures()[1]
	for _, vers := range []byte{0x00, 0x02} {
		// Foreign client: answers the server's request with a frame of
		// the wrong version.
		type listenResult struct {
			tr  *TCPTransport
			err error
		}
		addrCh := make(chan string, 1)
		resCh := make(chan listenResult, 1)
		go func() {
			tr, err := ListenTCP("127.0.0.1:0", 1, 5*time.Second, addrCh, WireOpts{})
			resCh <- listenResult{tr, err}
		}()
		raw, err := net.Dial("tcp", <-addrCh)
		if err != nil {
			t.Fatal(err)
		}
		res := <-resCh
		if res.err != nil {
			t.Fatal(res.err)
		}
		// Bounds the calls should the frame be accepted: the raw peer
		// answers only once.
		res.tr.SetCallTimeout(2 * time.Second)
		peerErr := make(chan error, 1)
		go func() {
			if _, err := readFrame(raw); err != nil {
				peerErr <- err
				return
			}
			peerErr <- writeFrame(raw, append(append(newFrame(), statusOK), foreignFrame(fixture, vers)...))
		}()
		if _, err := res.tr.Call(0, fixture); !errors.Is(err, ErrClientDead) {
			t.Errorf("version 0x%02x client: call err = %v, want ErrClientDead", vers, err)
		}
		if err := <-peerErr; err != nil {
			t.Fatalf("version 0x%02x client: raw peer: %v", vers, err)
		}
		start := time.Now()
		if _, err := res.tr.Call(0, fixture); !errors.Is(err, ErrClientDead) {
			t.Errorf("version 0x%02x client: second call err = %v, want ErrClientDead", vers, err)
		}
		if since := time.Since(start); since > 50*time.Millisecond {
			t.Errorf("version 0x%02x client: dead connection still waited %v", vers, since)
		}
		//lint:allow errdrop test teardown
		res.tr.Close()
		//lint:allow errdrop test teardown
		raw.Close()

		// Foreign server: sends a request frame of the wrong version.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- ServeTCP(ln.Addr().String(), mirrorClient{}, nil, WireOpts{}) }()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, append(newFrame(), foreignFrame(fixture, vers)...)); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-serveErr:
			if !errors.Is(err, codec.ErrMalformed) {
				t.Errorf("version 0x%02x server: serve err = %v, want codec.ErrMalformed", vers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("version 0x%02x server: ServeTCP did not reject the frame", vers)
		}
		// The client hung up instead of replying.
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(conn); !errors.Is(err, io.EOF) {
			t.Errorf("version 0x%02x server: read after rejection = %v, want EOF", vers, err)
		}
		//lint:allow errdrop test teardown
		conn.Close()
		//lint:allow errdrop test teardown
		ln.Close()
	}
}

// TestParseWireOpts covers the -wire flag syntax round trip, and the
// rejection of retired formats and conflicting or repeated tiers.
func TestParseWireOpts(t *testing.T) {
	good := map[string]WireOpts{
		"v1":     {},
		"v1+q8":  {Quant: codec.QuantInt8},
		"v1+q16": {Quant: codec.QuantFloat16},
	}
	for s, want := range good {
		got, err := ParseWireOpts(s)
		if err != nil {
			t.Errorf("ParseWireOpts(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseWireOpts(%q) = %+v, want %+v", s, got, want)
		}
		if got.String() != s {
			t.Errorf("ParseWireOpts(%q).String() = %q", s, got.String())
		}
	}
	for _, s := range []string{"", "v2", "v1+q7", "v1+", "q8",
		"gob", "v0", "v1+z", "v1+q8+z", "v1+q8+q16", "v1+q8+q8"} {
		_, err := ParseWireOpts(s)
		if err == nil {
			t.Errorf("ParseWireOpts(%q) accepted invalid input", s)
			continue
		}
		if !strings.Contains(err.Error(), "v1, v1+q8 or v1+q16") {
			t.Errorf("ParseWireOpts(%q) error %q does not name the accepted forms", s, err)
		}
	}
}

// hiddenWire wraps a transport without forwarding Wire(), so the
// server cannot learn its wire format.
type hiddenWire struct{ Transport }

// TestWireAccounting: a server bills the exact encoded frame bytes of
// its transport's tier, and a transport that does not report its tier
// is billed as lossless v1.
func TestWireAccounting(t *testing.T) {
	req := wireFixtures()[2]
	for name, w := range wireMatrixOpts() {
		srv := NewServer(NewInProcWire([]Client{mirrorClient{}, mirrorClient{}}, w))
		resps, _, err := srv.BroadcastQuorum(req, QuorumConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantDown := 2 * int64(codec.EncodedSize(req, w.Quant))
		var wantUp int64
		for _, r := range resps {
			wantUp += int64(codec.EncodedSize(r, w.Quant))
		}
		st := srv.Stats()
		if st.BytesDown != wantDown || st.BytesUp != wantUp {
			t.Errorf("%s: stats down/up = %d/%d, want %d/%d", name, st.BytesDown, st.BytesUp, wantDown, wantUp)
		}
	}
	q8 := NewInProcWire([]Client{mirrorClient{}}, WireOpts{Quant: codec.QuantInt8})
	srv := NewServer(hiddenWire{q8})
	if _, err := srv.Call(0, req); err != nil {
		t.Fatal(err)
	}
	lossless, quant := int64(codec.EncodedSize(req, codec.QuantNone)), int64(codec.EncodedSize(req, codec.QuantInt8))
	if lossless == quant {
		t.Fatalf("fixture does not tell the tiers apart (%d bytes each)", lossless)
	}
	if st := srv.Stats(); st.BytesDown != lossless {
		t.Errorf("wire-less transport BytesDown = %d, want lossless %d", st.BytesDown, lossless)
	}
}

// TestChaosWireDelegation: wrapping a wire-aware transport in chaos
// keeps the server's byte accounting identical.
func TestChaosWireDelegation(t *testing.T) {
	w := WireOpts{Quant: codec.QuantFloat16}
	inner := NewInProcWire([]Client{mirrorClient{}}, w)
	chaos := NewChaos(inner, 1)
	if got := chaos.Wire(); got != w {
		t.Fatalf("chaos Wire() = %+v, want %+v", got, w)
	}
	srv := NewServer(chaos)
	req := wireFixtures()[2]
	if _, err := srv.Call(0, req); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.BytesDown != w.Size(req) {
		t.Errorf("chaos-wrapped BytesDown = %d, want %d", st.BytesDown, w.Size(req))
	}
	// An inner transport that does not report its format reads as
	// lossless v1 through the chaos wrapper too.
	if got := NewChaos(hiddenWire{inner}, 1).Wire(); got != (WireOpts{}) {
		t.Errorf("wire-less inner reported %+v", got)
	}
}
