package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fedforecaster/internal/obs"
)

// ErrTransient marks an injected retryable fault: the call failed but
// the client may answer a retry. The retry layer (CallWithPolicy)
// retries these; permanent faults (ErrClientDead) fail fast.
var ErrTransient = errors.New("fl: transient fault")

// ClientFaults is one client's fault schedule inside a ChaosTransport.
// All probabilities are per call and drawn from the client's private
// seeded RNG, so a fixed (seed, schedule, call sequence) triple yields
// a fixed fault trace — chaos tests are reproducible.
type ClientFaults struct {
	// Delay is slept before the call is forwarded whenever the delay
	// draw fires (DelayProb ≥ 1 means every call) — a straggler.
	Delay     time.Duration
	DelayProb float64
	// FailFirst makes the first N calls fail with ErrTransient before
	// reaching the client — a deterministic flap that bounded retry
	// should mask.
	FailFirst int
	// TransientProb fails a call with ErrTransient at random.
	TransientProb float64
	// DieAfter kills the client permanently once it has been called
	// DieAfter times: every later call returns ErrClientDead without
	// reaching the client (0 = immortal).
	DieAfter int
	// CorruptProb garbles the response payload: every scalar becomes
	// NaN and the kind is tagged, modelling a client whose answer
	// cannot be trusted.
	CorruptProb float64
}

// chaosClient is the per-client fault state. Its mutex serializes fate
// decisions so the RNG draw sequence — three draws per call — is
// deterministic even under concurrent broadcasts.
type chaosClient struct {
	mu     sync.Mutex
	rng    *rand.Rand   // guarded by mu
	faults ClientFaults // guarded by mu
	calls  int          // guarded by mu
	dead   bool         // guarded by mu
}

// ChaosTransport wraps any Transport and injects per-client faults:
// delays, transient errors, permanent death, and response corruption.
// It is the fault-injection substrate for resilience tests — wrap an
// InProcTransport to chaos-test a full Engine.Run, or a TCPTransport to
// chaos-test the wire path.
type ChaosTransport struct {
	inner Transport
	seed  int64

	mu      sync.Mutex
	clients map[int]*chaosClient // guarded by mu
	rec     obs.Recorder         // guarded by mu
}

// NewChaos wraps the transport. Each client's fault RNG is derived from
// the seed and the client index, so schedules are independent and
// reproducible.
//
//lint:allow deadexport used by the fedbench module's chaos-rounds workload and by tests
func NewChaos(inner Transport, seed int64) *ChaosTransport {
	return &ChaosTransport{inner: inner, seed: seed, clients: map[int]*chaosClient{}}
}

// client returns (creating if needed) the fault state for client i.
func (t *ChaosTransport) client(i int) *chaosClient {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.clients[i]
	if !ok {
		c = &chaosClient{rng: rand.New(rand.NewSource(t.seed ^ (int64(i)+1)*0x9e3779b9))}
		t.clients[i] = c
	}
	return c
}

// SetRecorder installs a telemetry recorder that receives one
// ChaosInject event per injected fault (delay, transient, die, dead,
// corrupt). Events are emitted outside the per-client mutex, on the
// calling goroutine, after the fate decision — they observe faults,
// never perturb the three-draw RNG schedule. Server.SetRecorder
// forwards its recorder here, so a traced run records the faults.
func (t *ChaosTransport) SetRecorder(r obs.Recorder) {
	t.mu.Lock()
	t.rec = r
	t.mu.Unlock()
}

// recorder snapshots the current recorder (possibly nil).
func (t *ChaosTransport) recorder() obs.Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec
}

// inject reports one injected fault to the recorder, if any.
func (t *ChaosTransport) inject(client int, fault string) {
	if rec := t.recorder(); rec != nil {
		rec.Record(obs.ChaosInject{Client: client, Fault: fault})
	}
}

// SetFaults installs (replaces) client i's fault schedule.
//
//lint:allow deadexport used by the fedbench module's chaos-rounds workload and by tests
func (t *ChaosTransport) SetFaults(i int, f ClientFaults) {
	c := t.client(i)
	c.mu.Lock()
	c.faults = f
	c.mu.Unlock()
}

// Kill marks client i permanently dead right now — a crash between
// rounds, as opposed to DieAfter's crash on a call count.
//
//lint:allow deadexport test hook: the chaos and waste tests crash a client between rounds
func (t *ChaosTransport) Kill(i int) {
	c := t.client(i)
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
}

// Dead reports whether client i has died.
//
//lint:allow deadexport test hook: the chaos tests check that a scheduled death happened
func (t *ChaosTransport) Dead(i int) bool {
	c := t.client(i)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// NumClients delegates to the wrapped transport.
func (t *ChaosTransport) NumClients() int { return t.inner.NumClients() }

// Wire reports the wrapped transport's wire format (lossless v1 when
// the inner transport does not report one), so chaos-wrapped servers
// bill bytes identically to unwrapped ones.
func (t *ChaosTransport) Wire() WireOpts {
	if wt, ok := t.inner.(WireTransport); ok {
		return wt.Wire()
	}
	return WireOpts{}
}

// Close delegates to the wrapped transport.
func (t *ChaosTransport) Close() error { return t.inner.Close() }

// Call decides the call's fate under the client's fault schedule, then
// (unless faulted) forwards to the wrapped transport. Exactly three RNG
// draws happen per call regardless of which faults are configured, so
// enabling one fault never perturbs another's schedule.
func (t *ChaosTransport) Call(i int, req Message) (Message, error) {
	c := t.client(i)

	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		t.inject(i, "dead")
		return Message{}, fmt.Errorf("fl: chaos client %d: %w", i, ErrClientDead)
	}
	c.calls++
	f := c.faults
	dDelay, dTransient, dCorrupt := c.rng.Float64(), c.rng.Float64(), c.rng.Float64()
	if f.DieAfter > 0 && c.calls > f.DieAfter {
		c.dead = true
		c.mu.Unlock()
		t.inject(i, "die")
		return Message{}, fmt.Errorf("fl: chaos client %d: %w", i, ErrClientDead)
	}
	delay := time.Duration(0)
	if f.Delay > 0 && dDelay < f.DelayProb {
		delay = f.Delay
	}
	transient := c.calls <= f.FailFirst || dTransient < f.TransientProb
	corrupt := dCorrupt < f.CorruptProb
	c.mu.Unlock()

	if delay > 0 {
		t.inject(i, "delay")
		time.Sleep(delay)
	}
	if transient {
		t.inject(i, "transient")
		return Message{}, fmt.Errorf("fl: chaos client %d: %w", i, ErrTransient)
	}
	resp, err := t.inner.Call(i, req)
	if err != nil {
		return Message{}, err
	}
	if corrupt {
		t.inject(i, "corrupt")
		resp = corruptMessage(resp)
	}
	return resp, nil
}

// corruptMessage returns a garbled copy of the response: all scalars
// NaN and a tagged kind, leaving the original maps unshared.
//
// maporder audit note: the range below writes through the iterated key
// into a fresh map (key→key copy), so iteration order cannot affect
// the result; the lint rule exempts map-keyed writes for exactly this
// shape. TestCorruptMessageDeterministic pins it.
func corruptMessage(m Message) Message {
	out := m
	out.Kind = m.Kind + "!corrupt"
	out.Scalars = make(map[string]float64, len(m.Scalars))
	for k := range m.Scalars {
		out.Scalars[k] = math.NaN()
	}
	return out
}
