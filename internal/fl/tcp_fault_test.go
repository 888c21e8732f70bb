package fl

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// suicidalClient behaves like echoClient until it receives a
// "fit/kill" request, at which point it severs its own connection
// mid-call — a client process crashing while the server waits on it.
type suicidalClient struct {
	echoClient
	die  chan struct{}
	once sync.Once
}

func (c *suicidalClient) Fit(req Message) (Message, error) {
	if req.Kind == "fit/kill" {
		c.once.Do(func() { close(c.die) })
		// The connection closes underneath us; give it time so the
		// server observes a dead peer, not a reply.
		time.Sleep(200 * time.Millisecond)
		return NewMessage("ghost"), nil
	}
	return c.echoClient.Fit(req)
}

// TestTCPKillMidRound kills one of three TCP clients in the middle of a
// quorum round and asserts: the round completes over the survivors, the
// dead client stays dropped (failing fast in later rounds), and Close
// afterwards is clean.
func TestTCPKillMidRound(t *testing.T) {
	const n = 3
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	addrCh := make(chan string, 1)
	go func() {
		tr, err := ListenTCP("127.0.0.1:0", n, 5*time.Second, addrCh, WireOpts{})
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh

	stop := make(chan struct{})
	die := make(chan struct{})
	go func() { _ = ServeTCP(addr, &suicidalClient{echoClient: echoClient{id: 99}, die: die}, die, WireOpts{}) }()
	for i := 0; i < n-1; i++ {
		go func(i int) { _ = ServeTCP(addr, &echoClient{id: i}, stop, WireOpts{}) }(i)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	srv := NewServer(res.tr)
	defer close(stop)

	// Round 1: the suicidal client dies mid-call; quorum 0.5 of 3 needs
	// 2 survivors and must succeed.
	q := QuorumConfig{MinFraction: 0.5}
	req := NewMessage("fit/kill")
	req.Scalars["offset"] = 7
	resps, idx, err := srv.BroadcastQuorum(req, q)
	if err != nil {
		t.Fatalf("quorum round died with the client: %v", err)
	}
	if len(resps) != n-1 || len(idx) != n-1 {
		t.Fatalf("survivors = %d, want %d (idx %v)", len(resps), n-1, idx)
	}
	for _, r := range resps {
		if r.Kind != "fitted" {
			t.Errorf("survivor response kind = %q", r.Kind)
		}
	}

	// Round 2: the dead client fails fast; the round stays alive on the
	// same survivors without any configured timeout.
	start := time.Now()
	resps2, idx2, err := srv.BroadcastQuorum(NewMessage("fit/x"), q)
	if err != nil {
		t.Fatalf("follow-up round: %v", err)
	}
	if len(resps2) != n-1 {
		t.Fatalf("follow-up survivors = %d (idx %v)", len(resps2), idx2)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("dead client stalled the round for %v", elapsed)
	}
	// The dropped connection reports permanent death directly.
	var deadIdx int
	seen := map[int]bool{}
	for _, c := range idx2 {
		seen[c] = true
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			deadIdx = i
		}
	}
	if _, err := srv.Call(deadIdx, NewMessage("props")); !errors.Is(err, ErrClientDead) {
		t.Errorf("dead client call err = %v, want ErrClientDead", err)
	}

	// Close after a mid-round death is clean.
	if err := srv.Close(); err != nil {
		t.Errorf("Close after client death: %v", err)
	}
}

// TestTCPHungClientDeadline connects a client that accepts the request
// but never replies, and asserts the per-call deadline trips instead of
// blocking the round forever — and that the connection is then poisoned.
func TestTCPHungClientDeadline(t *testing.T) {
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	addrCh := make(chan string, 1)
	go func() {
		tr, err := ListenTCP("127.0.0.1:0", 1, 5*time.Second, addrCh, WireOpts{})
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh

	// A hung client: dials, then never reads or writes.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	tr := res.tr
	defer tr.Close()
	tr.SetCallTimeout(100 * time.Millisecond)

	start := time.Now()
	_, err = tr.Call(0, NewMessage("props"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call to hung client succeeded")
	}
	if !errors.Is(err, ErrCallTimeout) {
		t.Errorf("err = %v, want ErrCallTimeout in chain", err)
	}
	if !errors.Is(err, ErrClientDead) {
		t.Errorf("err = %v, want ErrClientDead in chain (stream is desynced)", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("hung client blocked for %v despite 100ms deadline", elapsed)
	}
	// Subsequent calls fail fast without waiting for another deadline.
	start = time.Now()
	if _, err := tr.Call(0, NewMessage("props")); !errors.Is(err, ErrClientDead) {
		t.Errorf("second call err = %v", err)
	}
	if since := time.Since(start); since > 50*time.Millisecond {
		t.Errorf("dead connection still waited %v", since)
	}
}

// TestTCPHungClientViaRetryPolicy exercises the full resilience stack
// over the wire: one hung client plus one healthy client, quorum 0.5
// with a call timeout — the round must complete promptly.
func TestTCPHungClientViaRetryPolicy(t *testing.T) {
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	addrCh := make(chan string, 1)
	go func() {
		tr, err := ListenTCP("127.0.0.1:0", 2, 5*time.Second, addrCh, WireOpts{})
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh

	hung, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() { _ = ServeTCP(addr, &echoClient{id: 1}, stop, WireOpts{}) }()

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	tr := res.tr
	tr.SetCallTimeout(100 * time.Millisecond)
	srv := NewServer(tr)
	defer srv.Close()

	start := time.Now()
	resps, idx, err := srv.BroadcastQuorum(NewMessage("props"), QuorumConfig{
		MinFraction: 0.5,
		Retry:       RetryPolicy{Timeout: 150 * time.Millisecond, MaxRetries: 1, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("quorum round with hung client: %v", err)
	}
	if len(resps) != 1 || len(idx) != 1 {
		t.Fatalf("survivors = %d (idx %v), want 1", len(resps), idx)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("round took %v with a 100ms call deadline", elapsed)
	}
}

// TestTCPConcurrentCallsAndClose hammers Call/NumClients concurrently
// with Close — the latent conns/mu race this exercise is designed to
// catch only fails under -race, which scripts/check.sh runs.
func TestTCPConcurrentCallsAndClose(t *testing.T) {
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	addrCh := make(chan string, 1)
	go func() {
		tr, err := ListenTCP("127.0.0.1:0", 2, 5*time.Second, addrCh, WireOpts{})
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func(i int) { _ = ServeTCP(addr, &echoClient{id: i}, stop, WireOpts{}) }(i)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	tr := res.tr
	defer close(stop)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				_, _ = tr.Call(k%2, NewMessage("props"))
				_ = tr.NumClients()
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	_ = tr.Close() // races against in-flight calls; must be clean under -race
	close(done)
	wg.Wait()
}
