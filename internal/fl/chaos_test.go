package fl

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport wraps a transport and counts calls that actually
// reach it — used to verify fail-fast and retry behaviour.
type countingTransport struct {
	Transport
	calls int64
}

func (t *countingTransport) Call(i int, req Message) (Message, error) {
	atomic.AddInt64(&t.calls, 1)
	return t.Transport.Call(i, req)
}

func newEchoChaos(n int, seed int64) (*ChaosTransport, *countingTransport) {
	clients := make([]Client, n)
	for i := range clients {
		clients[i] = &echoClient{id: i}
	}
	inner := &countingTransport{Transport: NewInProcWire(clients, WireOpts{})}
	return NewChaos(inner, seed), inner
}

func TestChaosPassthrough(t *testing.T) {
	chaos, _ := newEchoChaos(2, 1)
	resp, err := chaos.Call(1, NewMessage("props"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scalars["id"] != 1 {
		t.Errorf("response id = %v", resp.Scalars["id"])
	}
	if chaos.NumClients() != 2 {
		t.Errorf("NumClients = %d", chaos.NumClients())
	}
	if chaos.Calls(1) != 1 || chaos.Calls(0) != 0 {
		t.Errorf("call counts = %d,%d", chaos.Calls(0), chaos.Calls(1))
	}
}

func TestChaosDelay(t *testing.T) {
	chaos, _ := newEchoChaos(1, 1)
	chaos.SetFaults(0, ClientFaults{Delay: 30 * time.Millisecond, DelayProb: 1})
	start := time.Now()
	if _, err := chaos.Call(0, NewMessage("props")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("delayed call returned after %v, want ≥ 30ms", elapsed)
	}
}

func TestChaosFailFirstThenRecover(t *testing.T) {
	chaos, inner := newEchoChaos(1, 1)
	chaos.SetFaults(0, ClientFaults{FailFirst: 2})
	for k := 0; k < 2; k++ {
		_, err := chaos.Call(0, NewMessage("props"))
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("call %d: err = %v, want ErrTransient", k, err)
		}
	}
	if _, err := chaos.Call(0, NewMessage("props")); err != nil {
		t.Fatalf("third call should recover: %v", err)
	}
	// Transient faults are injected before the inner transport.
	if got := atomic.LoadInt64(&inner.calls); got != 1 {
		t.Errorf("inner transport saw %d calls, want 1", got)
	}
	// The retry layer masks the flap entirely.
	chaos2, _ := newEchoChaos(1, 1)
	chaos2.SetFaults(0, ClientFaults{FailFirst: 2})
	resp, err := callWithPolicy(chaos2, 0, NewMessage("props"), RetryPolicy{MaxRetries: 2, BaseBackoff: time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("retry did not mask transient flap: %v", err)
	}
	if resp.Scalars["id"] != 0 {
		t.Errorf("masked response = %v", resp.Scalars)
	}
}

func TestChaosDieAfter(t *testing.T) {
	chaos, inner := newEchoChaos(1, 1)
	chaos.SetFaults(0, ClientFaults{DieAfter: 2})
	for k := 0; k < 2; k++ {
		if _, err := chaos.Call(0, NewMessage("props")); err != nil {
			t.Fatalf("call %d before death: %v", k, err)
		}
	}
	_, err := chaos.Call(0, NewMessage("props"))
	if !errors.Is(err, ErrClientDead) {
		t.Fatalf("post-death err = %v, want ErrClientDead", err)
	}
	if !chaos.Dead(0) {
		t.Error("Dead(0) = false after death")
	}
	// Death is permanent and fails fast under retry: the inner
	// transport must not be touched again.
	before := atomic.LoadInt64(&inner.calls)
	_, err = callWithPolicy(chaos, 0, NewMessage("props"), RetryPolicy{MaxRetries: 5, BaseBackoff: time.Millisecond}, nil)
	if !errors.Is(err, ErrClientDead) {
		t.Fatalf("retried dead client err = %v", err)
	}
	if after := atomic.LoadInt64(&inner.calls); after != before {
		t.Errorf("dead client reached inner transport (%d → %d calls)", before, after)
	}
}

func TestChaosKill(t *testing.T) {
	chaos, _ := newEchoChaos(2, 1)
	chaos.Kill(1)
	if _, err := chaos.Call(0, NewMessage("props")); err != nil {
		t.Fatalf("healthy client failed: %v", err)
	}
	if _, err := chaos.Call(1, NewMessage("props")); !errors.Is(err, ErrClientDead) {
		t.Fatalf("killed client err = %v", err)
	}
}

func TestChaosCorruption(t *testing.T) {
	chaos, _ := newEchoChaos(1, 1)
	chaos.SetFaults(0, ClientFaults{CorruptProb: 1})
	resp, err := chaos.Call(0, NewMessage("props"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "props!corrupt" {
		t.Errorf("corrupted kind = %q", resp.Kind)
	}
	if !math.IsNaN(resp.Scalars["id"]) {
		t.Errorf("corrupted scalar = %v, want NaN", resp.Scalars["id"])
	}
}

// TestChaosDeterminism: an identical (seed, schedule, call sequence)
// produces an identical fault trace.
func TestChaosDeterminism(t *testing.T) {
	trace := func(seed int64) []string {
		chaos, _ := newEchoChaos(3, seed)
		for i := 0; i < 3; i++ {
			chaos.SetFaults(i, ClientFaults{TransientProb: 0.4, CorruptProb: 0.3})
		}
		var out []string
		for k := 0; k < 40; k++ {
			for i := 0; i < 3; i++ {
				resp, err := chaos.Call(i, NewMessage("props"))
				switch {
				case err != nil:
					out = append(out, fmt.Sprintf("%d:err", i))
				case resp.Kind == "props!corrupt":
					out = append(out, fmt.Sprintf("%d:corrupt", i))
				default:
					out = append(out, fmt.Sprintf("%d:ok", i))
				}
			}
		}
		return out
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// And a different seed produces a different trace (overwhelmingly
	// likely over 120 draws at p=0.4/0.3).
	c := trace(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault traces")
	}
}

func TestBroadcastQuorumSurvivors(t *testing.T) {
	chaos, _ := newEchoChaos(4, 1)
	chaos.Kill(2)
	srv := NewServer(chaos)
	defer srv.Close()
	resps, idx, err := srv.BroadcastQuorum(NewMessage("props"), QuorumConfig{MinFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 || len(idx) != 3 {
		t.Fatalf("survivors = %d responses / %v indices", len(resps), idx)
	}
	want := []int{0, 1, 3}
	for k, c := range want {
		if idx[k] != c {
			t.Fatalf("survivor indices = %v, want %v", idx, want)
		}
		if resps[k].Scalars["id"] != float64(c) {
			t.Errorf("survivor %d response id = %v", c, resps[k].Scalars["id"])
		}
	}
}

func TestBroadcastQuorumNotMet(t *testing.T) {
	chaos, _ := newEchoChaos(4, 1)
	chaos.Kill(1)
	chaos.Kill(2)
	chaos.Kill(3)
	srv := NewServer(chaos)
	defer srv.Close()
	var dropped []int
	_, _, err := srv.BroadcastQuorum(NewMessage("props"), QuorumConfig{
		MinFraction: 0.5,
		OnDrop:      func(c int, err error) { dropped = append(dropped, c) },
	})
	if !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("err = %v, want ErrQuorumNotMet", err)
	}
	if len(dropped) != 3 || dropped[0] != 1 || dropped[1] != 2 || dropped[2] != 3 {
		t.Errorf("OnDrop saw %v, want [1 2 3] in order", dropped)
	}
	// Full participation over the same wreckage also fails.
	if _, _, err := srv.BroadcastQuorum(NewMessage("props"), QuorumConfig{}); !errors.Is(err, ErrQuorumNotMet) {
		t.Errorf("full-participation err = %v", err)
	}
}

func TestCallSubsetQuorum(t *testing.T) {
	chaos, _ := newEchoChaos(4, 1)
	chaos.Kill(3)
	srv := NewServer(chaos)
	defer srv.Close()
	// Subset order is preserved for survivors.
	resps, idx, err := srv.CallSubsetQuorum([]int{3, 1, 0}, NewMessage("props"), QuorumConfig{MinFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 0 {
		t.Fatalf("survivor indices = %v, want [1 0]", idx)
	}
	if resps[0].Scalars["id"] != 1 || resps[1].Scalars["id"] != 0 {
		t.Errorf("responses out of order: %v %v", resps[0].Scalars, resps[1].Scalars)
	}
	// Empty subset errors.
	if _, _, err := srv.CallSubsetQuorum(nil, NewMessage("props"), QuorumConfig{}); !errors.Is(err, ErrNoClients) {
		t.Errorf("empty subset err = %v", err)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	// With a seeded Jitter, backoff scales into [0.5, 1.0)·min(base·2^(n−1), max).
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, Jitter: NewJitter(1)}.withDefaults()
	for attempt, wantMax := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond, 10: 40 * time.Millisecond} {
		for k := 0; k < 20; k++ {
			d := p.backoff(attempt)
			if d < wantMax/2 || d >= wantMax {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v)", attempt, d, wantMax/2, wantMax)
			}
		}
	}
	// Without a Jitter the schedule is the exact exponential sequence.
	bare := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}.withDefaults()
	for attempt, want := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond, 10: 40 * time.Millisecond} {
		if d := bare.backoff(attempt); d != want {
			t.Fatalf("unjittered backoff(%d) = %v, want %v", attempt, d, want)
		}
	}
	// Defaults fill in.
	d := RetryPolicy{}.withDefaults()
	if d.BaseBackoff != 5*time.Millisecond || d.MaxBackoff != 250*time.Millisecond {
		t.Errorf("defaults = %v/%v", d.BaseBackoff, d.MaxBackoff)
	}
}

// hangingTransport blocks forever on Call until released.
type hangingTransport struct {
	release chan struct{}
}

func (h *hangingTransport) NumClients() int { return 1 }
func (h *hangingTransport) Close() error    { return nil }
func (h *hangingTransport) Call(i int, req Message) (Message, error) {
	<-h.release
	return NewMessage("late"), nil
}

func TestCallOnceTimeout(t *testing.T) {
	h := &hangingTransport{release: make(chan struct{})}
	start := time.Now()
	_, err := callOnce(h, 0, NewMessage("props"), 25*time.Millisecond)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timed-out call blocked for %v", elapsed)
	}
	// Releasing the transport (closing the channel frees both the
	// abandoned watchdog goroutine and new calls) lets an unbounded
	// call complete.
	close(h.release)
	if _, err := callOnce(h, 0, NewMessage("props"), 0); err != nil {
		t.Errorf("unbounded call err = %v", err)
	}
}

func TestQuorumNeed(t *testing.T) {
	cases := []struct {
		frac float64
		n    int
		want int
	}{
		{0, 4, 4},    // zero → full participation
		{1, 4, 4},    // all
		{0.5, 4, 2},  // half
		{0.5, 5, 3},  // ceil
		{0.01, 4, 1}, // at least one
		{1.5, 4, 4},  // out of range → full
		{-0.5, 4, 4}, // out of range → full
		{0.25, 1, 1}, // single client
		{0.75, 8, 6}, // ceil(6)
		{0.76, 8, 7}, // strict ceil
	}
	for _, c := range cases {
		if got := (QuorumConfig{MinFraction: c.frac}).need(c.n); got != c.want {
			t.Errorf("need(frac=%v, n=%d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}
