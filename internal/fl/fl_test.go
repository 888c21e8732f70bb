package fl

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// echoClient is a test client that labels responses with its id.
type echoClient struct {
	id    int
	fail  bool
	calls int64
}

func (c *echoClient) Properties(req Message) (Message, error) {
	resp := NewMessage("props")
	resp.Scalars["id"] = float64(c.id)
	return resp, nil
}

func (c *echoClient) Fit(req Message) (Message, error) {
	atomic.AddInt64(&c.calls, 1)
	if c.fail {
		return Message{}, errors.New("boom")
	}
	resp := NewMessage("fitted")
	resp.Scalars["loss"] = float64(c.id) + req.Scalars["offset"]
	resp.Floats["weights"] = []float64{float64(c.id), float64(c.id * 2)}
	return resp, nil
}

func (c *echoClient) Evaluate(req Message) (Message, error) {
	resp := NewMessage("evaluated")
	resp.Scalars["loss"] = 10 * float64(c.id)
	return resp, nil
}

func TestDispatchRouting(t *testing.T) {
	c := &echoClient{id: 3}
	if resp, _ := Dispatch(c, NewMessage("fit/round1")); resp.Kind != "fitted" {
		t.Errorf("fit/ routed to %s", resp.Kind)
	}
	if resp, _ := Dispatch(c, NewMessage("eval/round1")); resp.Kind != "evaluated" {
		t.Errorf("eval/ routed to %s", resp.Kind)
	}
	if resp, _ := Dispatch(c, NewMessage("metafeatures")); resp.Kind != "props" {
		t.Errorf("props routed to %s", resp.Kind)
	}
}

// TestDispatchTable covers the routing convention exhaustively,
// including empty and shorter-than-prefix kinds that used to rely on
// manual length-guarded slicing.
func TestDispatchTable(t *testing.T) {
	cases := []struct {
		kind string
		want string
	}{
		{"fit/round1", "fitted"},
		{"eval/round1", "evaluated"},
		{"metafeatures", "props"},
		{"", "props"},          // empty kind
		{"f", "props"},         // shorter than any prefix
		{"fit", "props"},       // prefix without slash
		{"fit/", "fitted"},     // bare prefix
		{"eval", "props"},      // prefix without slash
		{"eva", "props"},       // short of the eval/ prefix
		{"eval/", "evaluated"}, // bare prefix
		{"refit/x", "props"},   // prefix must anchor at the start
		{"FIT/x", "props"},     // case-sensitive
	}
	for _, c := range cases {
		resp, err := Dispatch(&echoClient{id: 1}, NewMessage(c.kind))
		if err != nil {
			t.Fatalf("kind %q: %v", c.kind, err)
		}
		if resp.Kind != c.want {
			t.Errorf("kind %q routed to %q, want %q", c.kind, resp.Kind, c.want)
		}
	}
}

func TestInProcBroadcast(t *testing.T) {
	clients := []Client{&echoClient{id: 0}, &echoClient{id: 1}, &echoClient{id: 2}}
	srv := NewServer(NewInProcWire(clients, WireOpts{}))
	defer srv.Close()
	req := NewMessage("fit/x")
	req.Scalars["offset"] = 100
	resps, idx, err := srv.BroadcastQuorum(req, QuorumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 || len(idx) != 3 {
		t.Fatalf("responses = %d", len(resps))
	}
	for i, r := range resps {
		if r.Scalars["loss"] != float64(i)+100 {
			t.Errorf("client %d loss = %v", i, r.Scalars["loss"])
		}
	}
}

func TestBroadcastPropagatesError(t *testing.T) {
	clients := []Client{&echoClient{id: 0}, &echoClient{id: 1, fail: true}}
	srv := NewServer(NewInProcWire(clients, WireOpts{}))
	_, _, err := srv.BroadcastQuorum(NewMessage("fit/x"), QuorumConfig{})
	if !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("failing client under full participation: err = %v, want ErrQuorumNotMet", err)
	}
}

func TestInProcOutOfRange(t *testing.T) {
	srv := NewServer(NewInProcWire([]Client{&echoClient{}}, WireOpts{}))
	if _, err := srv.Call(5, NewMessage("props")); err == nil {
		t.Error("out-of-range call accepted")
	}
}

func TestWeightedLoss(t *testing.T) {
	got, err := WeightedLoss([]float64{1, 3}, []float64{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	want := (100*1.0 + 300*3.0) / 400
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted loss = %v, want %v", got, want)
	}
	if _, err := WeightedLoss(nil, nil); err == nil {
		t.Error("empty aggregation accepted")
	}
	if _, err := WeightedLoss([]float64{1}, []float64{0}); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestFedAvg(t *testing.T) {
	w := [][]float64{{1, 2}, {3, 6}}
	avg, err := FedAvg(w, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg[0]-2.5) > 1e-12 || math.Abs(avg[1]-5) > 1e-12 {
		t.Errorf("FedAvg = %v", avg)
	}
	if _, err := FedAvg([][]float64{{1}, {1, 2}}, []float64{1, 1}); err == nil {
		t.Error("ragged weights accepted")
	}
	if _, err := FedAvg(nil, nil); err == nil {
		t.Error("empty FedAvg accepted")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	const numClients = 3
	// Start the server listener in the background; clients dial it.
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	addrCh := make(chan string, 1)
	go func() {
		ln, err := ListenTCP("127.0.0.1:0", numClients, 5*time.Second, addrCh, WireOpts{})
		resCh <- listenResult{ln, err}
	}()
	addr := <-addrCh
	stop := make(chan struct{})
	for i := 0; i < numClients; i++ {
		go func(i int) {
			_ = ServeTCP(addr, &echoClient{id: i}, stop, WireOpts{})
		}(i)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	srv := NewServer(res.tr)
	defer func() {
		close(stop)
		srv.Close()
	}()

	req := NewMessage("fit/tcp")
	req.Scalars["offset"] = 7
	resps, _, err := srv.BroadcastQuorum(req, QuorumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Clients may connect in any order; verify the multiset of losses.
	seen := map[float64]bool{}
	for _, r := range resps {
		seen[r.Scalars["loss"]] = true
		if len(r.Floats["weights"]) != 2 {
			t.Errorf("weights payload = %v", r.Floats["weights"])
		}
	}
	for i := 0; i < numClients; i++ {
		if !seen[float64(i)+7] {
			t.Errorf("missing response from client %d: %v", i, seen)
		}
	}
}

func TestTCPClientErrorSurfaces(t *testing.T) {
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
	go func() { _ = ServeTCP(addr, &echoClient{id: 0, fail: true}, stop, WireOpts{}) }()
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer func() {
		close(stop)
		res.tr.Close()
	}()
	if _, err := res.tr.Call(0, NewMessage("fit/x")); err == nil {
		t.Fatal("client error did not surface")
	}
}

func TestListenTCPTimeout(t *testing.T) {
	if _, err := ListenTCP("127.0.0.1:0", 1, 50*time.Millisecond, nil, WireOpts{}); err == nil {
		t.Fatal("listen with no clients should time out")
	}
}

func TestCallSubset(t *testing.T) {
	srv := NewServer(NewInProcWire([]Client{
		&echoClient{id: 0}, &echoClient{id: 1}, &echoClient{id: 2},
	}, WireOpts{}))
	req := NewMessage("fit/x")
	resps, idx, err := srv.CallSubsetQuorum([]int{2, 0}, req, QuorumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || idx[0] != 2 || idx[1] != 0 {
		t.Fatalf("responses = %d from %v, want 2 from [2 0]", len(resps), idx)
	}
	if resps[0].Scalars["loss"] != 2 || resps[1].Scalars["loss"] != 0 {
		t.Errorf("subset order wrong: %v %v", resps[0].Scalars, resps[1].Scalars)
	}
	// Error propagation.
	srv2 := NewServer(NewInProcWire([]Client{&echoClient{id: 0, fail: true}}, WireOpts{}))
	if _, _, err := srv2.CallSubsetQuorum([]int{0}, req, QuorumConfig{}); err == nil {
		t.Error("subset error not propagated")
	}
}
