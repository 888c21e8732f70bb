package fl

import (
	"errors"
	"net"
	"runtime"
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
	if _, err := res.tr.Call(deadIdx, NewMessage("props")); !errors.Is(err, ErrClientDead) {
		t.Errorf("dead client call err = %v, want ErrClientDead", err)
	}

	// Close after a mid-round death is clean.
	if err := srv.Close(); err != nil {
		t.Errorf("Close after client death: %v", err)
	}
}

// TestTCPHungClientDeadline connects a client that accepts the request
// but never replies, and asserts the per-attempt deadline callOnce puts
// on the socket trips instead of blocking forever — and that the
// connection is then poisoned.
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
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	tr := res.tr
	// The hung client hangs up first, so a failing run cannot block
	// in Close.
	defer tr.Close()
	defer conn.Close()

	start := time.Now()
	_, err = callOnce(tr, 0, NewMessage("props"), 100*time.Millisecond)
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
	if _, err := callOnce(tr, 0, NewMessage("props"), 100*time.Millisecond); !errors.Is(err, ErrClientDead) || errors.Is(err, ErrCallTimeout) {
		t.Errorf("second call err = %v, want ErrClientDead without a timeout", err)
	}
	if since := time.Since(start); since > 50*time.Millisecond {
		t.Errorf("dead connection still waited %v", since)
	}
}

// TestTCPHungClientViaRetryPolicy exercises the full resilience stack
// over the wire, configured as the engine configures it: one hung
// client plus one healthy client, quorum 0.5, and a RetryPolicy whose
// Timeout is the only deadline. The first round times the hung client
// out once on the socket, which poisons its connection; later rounds
// drop it at once with ErrClientDead. No goroutine is left behind, and
// Close returns promptly.
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
	stop := make(chan struct{})
	defer close(stop)
	go func() { _ = ServeTCP(addr, &echoClient{id: 1}, stop, WireOpts{}) }()

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	srv := NewServer(res.tr)
	// Deferred calls run last-in first-out: the hung client hangs up
	// before the server closes, so a failing run cannot block here.
	defer srv.Close()
	defer hung.Close()

	baseline := runtime.NumGoroutine()
	var drops []error
	q := QuorumConfig{
		MinFraction: 0.5,
		Retry:       RetryPolicy{Timeout: 100 * time.Millisecond, MaxRetries: 2},
		OnDrop:      func(_ int, err error) { drops = append(drops, err) },
	}
	for round := 0; round < 3; round++ {
		drops = nil
		start := time.Now()
		resps, idx, err := srv.BroadcastQuorum(NewMessage("props"), q)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("round %d with hung client: %v", round, err)
		}
		if len(resps) != 1 || len(idx) != 1 || len(drops) != 1 {
			t.Fatalf("round %d: survivors = %d (idx %v), drops %v; want 1 and 1", round, len(resps), idx, drops)
		}
		if !errors.Is(drops[0], ErrClientDead) {
			t.Errorf("round %d: drop err = %v, want ErrClientDead", round, drops[0])
		}
		if timedOut := errors.Is(drops[0], ErrCallTimeout); timedOut != (round == 0) {
			t.Errorf("round %d: drop err = %v; only the first round may time out", round, drops[0])
		}
		if elapsed > time.Second {
			t.Errorf("round %d took %v with a 100ms call deadline", round, elapsed)
		}
	}

	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Errorf("goroutines = %d after the rounds, want ≤ %d", runtime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close blocked on the hung client's connection")
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
