package fl

import (
	"reflect"
	"testing"
	"time"
)

// rawClient answers with zero-value Messages whose payload maps are
// nil — the shape a handler that never touches a map produces.
type rawClient struct{}

func (rawClient) Properties(req Message) (Message, error) {
	return Message{Kind: "raw"}, nil
}
func (rawClient) Fit(req Message) (Message, error)      { return Message{Kind: "raw"}, nil }
func (rawClient) Evaluate(req Message) (Message, error) { return Message{Kind: "raw"}, nil }

// losslessSize is the byte count a server bills for m on a transport
// speaking the zero WireOpts (lossless v1).
func losslessSize(m Message) int64 { return WireOpts{}.Size(m) }

// TestServerStatsAccounting: rounds, calls, and byte totals accumulate
// across rounds; Sub scopes a window.
func TestServerStatsAccounting(t *testing.T) {
	clients := []Client{&echoClient{id: 0}, &echoClient{id: 1}, &echoClient{id: 2}}
	srv := NewServer(NewInProcWire(clients, WireOpts{}))
	defer srv.Close()

	req := NewMessage("fit/x")
	req.Scalars["offset"] = 1
	resps, _, err := srv.BroadcastQuorum(req, QuorumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Rounds != 1 || st.Calls != 3 {
		t.Errorf("after broadcast: %+v, want 1 round / 3 calls", st)
	}
	wantDown := 3 * losslessSize(req)
	var wantUp int64
	for _, r := range resps {
		wantUp += losslessSize(r)
	}
	if st.BytesDown != wantDown || st.BytesUp != wantUp {
		t.Errorf("bytes = %d down / %d up, want %d / %d", st.BytesDown, st.BytesUp, wantDown, wantUp)
	}

	// A second round's window bills it alone.
	base := srv.Stats()
	if _, _, err := srv.BroadcastQuorum(req, QuorumConfig{}); err != nil {
		t.Fatal(err)
	}
	if delta := srv.Stats().Sub(base); delta != (Stats{Rounds: 1, Calls: 3, BytesDown: wantDown, BytesUp: wantUp}) {
		t.Errorf("second round delta = %+v, want 1 round / 3 calls / %d down / %d up", delta, wantDown, wantUp)
	}
	if st = srv.Stats(); st.Rounds != 2 || st.Calls != 6 {
		t.Errorf("after two rounds: %+v, want 2 rounds / 6 calls", st)
	}
}

// TestQuorumRoundAccounted: quorum rounds charge only the survivors.
func TestQuorumRoundAccounted(t *testing.T) {
	clients := []Client{&echoClient{id: 0}, &echoClient{id: 1, fail: true}, &echoClient{id: 2}}
	srv := NewServer(NewInProcWire(clients, WireOpts{}))
	defer srv.Close()
	msgs, ids, err := srv.BroadcastQuorum(NewMessage("fit/x"), QuorumConfig{MinFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || len(ids) != 2 {
		t.Fatalf("survivors = %d, want 2", len(msgs))
	}
	st := srv.Stats()
	if st.Rounds != 1 || st.Calls != 2 {
		t.Errorf("quorum stats = %+v, want 1 round / 2 calls (failed client unbilled)", st)
	}
}

// TestNormalizeCrossTransportEquivalence: a client handing back
// zero-value Messages (nil maps) reaches the server in identical
// canonical form — non-nil empty maps — over both the in-process and
// the TCP transport, so server code never branches on transport.
func TestNormalizeCrossTransportEquivalence(t *testing.T) {
	// In-process path.
	inproc := NewInProcWire([]Client{rawClient{}}, WireOpts{})
	defer inproc.Close()
	inResp, err := inproc.Call(0, Message{Kind: "props"}) // nil-map request too
	if err != nil {
		t.Fatal(err)
	}

	// TCP path with the same client.
	addrCh := make(chan string, 1)
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	go func() {
		ln, err := ListenTCP("127.0.0.1:0", 1, 5*time.Second, addrCh, WireOpts{})
		resCh <- listenResult{ln, err}
	}()
	addr := <-addrCh
	stop := make(chan struct{})
	go func() { _ = ServeTCP(addr, rawClient{}, stop, WireOpts{}) }()
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer func() {
		close(stop)
		//lint:allow errdrop test teardown
		res.tr.Close()
	}()
	tcpResp, err := res.tr.Call(0, Message{Kind: "props"})
	if err != nil {
		t.Fatal(err)
	}

	for name, m := range map[string]Message{"inproc": inResp, "tcp": tcpResp} {
		if m.Scalars == nil || m.Floats == nil || m.Strings == nil || m.Ints == nil {
			t.Errorf("%s response has nil payload map: %+v", name, m)
		}
	}
	if !reflect.DeepEqual(inResp, tcpResp) {
		t.Errorf("transports disagree:\ninproc = %#v\ntcp    = %#v", inResp, tcpResp)
	}
}

// TestNormalizeIdempotent: normalizing a fully-populated message leaves
// it untouched.
func TestNormalizeIdempotent(t *testing.T) {
	m := NewMessage("k")
	m.Scalars["a"] = 1
	before := m
	m.Normalize()
	if !reflect.DeepEqual(before, m) {
		t.Errorf("Normalize mutated a canonical message: %+v vs %+v", before, m)
	}
}
