package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fedforecaster/internal/fl/codec"
	"fedforecaster/internal/obs"
)

// ErrClientDead marks a client as permanently unreachable: its
// connection is gone (TCP) or its fault schedule killed it (chaos).
// CallWithPolicy fails fast on it instead of burning retries.
var ErrClientDead = errors.New("fl: client dead")

// ErrCallTimeout marks a client call that exceeded its per-attempt
// deadline.
var ErrCallTimeout = errors.New("fl: call timed out")

// ErrQuorumNotMet is returned by the quorum round helpers when fewer
// clients than the configured fraction responded.
var ErrQuorumNotMet = errors.New("fl: quorum not met")

// Jitter is a seeded, concurrency-safe source of backoff jitter
// factors. Sharing one *Jitter across the copies of a RetryPolicy
// (it travels by pointer) gives a single replayable stream: two
// policies built with equal seeds produce identical backoff
// sequences, so fault-injection traces replay bit-identically.
type Jitter struct {
	mu sync.Mutex
	r  *rand.Rand // guarded by mu
}

// NewJitter returns a jitter stream seeded for replay. Library code
// must thread a seed from its configuration (e.g. EngineConfig.Seed);
// only command-line entry points may seed from the clock.
func NewJitter(seed int64) *Jitter {
	return &Jitter{r: rand.New(rand.NewSource(seed))}
}

// factor draws the next uniform factor in [0, 1). Safe for
// concurrent use; concurrent callers interleave draws from the one
// seeded stream, which perturbs timing only — never quorum
// membership.
func (j *Jitter) factor() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.r.Float64()
}

// RetryPolicy bounds one logical client call: a per-attempt deadline
// plus bounded retries with exponential backoff and optional seeded
// jitter. The zero value means a single attempt with no deadline and
// deterministic (unjittered) backoff — the original behaviour of
// Server.Broadcast.
type RetryPolicy struct {
	// Timeout is the per-attempt deadline (0 = wait forever). The TCP
	// transport additionally enforces it on the socket via SetDeadline,
	// which also unblocks the watchdog goroutine used here.
	Timeout time.Duration
	// MaxRetries is the number of additional attempts after the first
	// (0 = no retry). Permanent failures (ErrClientDead) are never
	// retried.
	MaxRetries int
	// BaseBackoff is the sleep before the first retry (default 5ms);
	// it doubles per attempt up to MaxBackoff (default 250ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter, when non-nil, scales each backoff by a uniform factor in
	// [0.5, 1.0) drawn from its seeded stream, de-synchronizing retry
	// stampedes while staying replayable. Nil means no jitter: the
	// backoff sequence is the pure exponential schedule.
	Jitter *Jitter
}

// withDefaults fills the backoff defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before retry attempt n (1-based):
// min(base·2^(n−1), max), scaled by a uniform factor in [0.5, 1.0)
// drawn from the policy's seeded Jitter when one is set. Jitter
// affects timing only — never which clients end up in the quorum —
// and, being seeded, replays identically across runs (fedlint's
// seededrand rule forbids the global math/rand source here).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter == nil {
		return d
	}
	return time.Duration(float64(d) * (0.5 + float64(0.5*p.Jitter.factor())))
}

// callOnce performs a single attempt against client i, bounded by the
// timeout. The transport call runs in a watchdog goroutine: if it hangs
// past the deadline we return ErrCallTimeout and the goroutine drains
// in the background (the TCP transport's own SetDeadline guarantees it
// eventually unblocks; in-process clients are expected to return).
func callOnce(t Transport, i int, req Message, timeout time.Duration) (Message, error) {
	if timeout <= 0 {
		return t.Call(i, req)
	}
	type result struct {
		msg Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, err := t.Call(i, req)
		ch <- result{m, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.msg, r.err
	case <-timer.C:
		return Message{}, fmt.Errorf("fl: client %d: %w after %v", i, ErrCallTimeout, timeout)
	}
}

// attemptHook observes one per-attempt outcome inside a policied call:
// the client index, the 1-based attempt number, the telemetry clock
// (obs.NowNanos) read right before and right after the transport call,
// the response (zero on failure), and the attempt's error. Hooks run
// on the calling goroutine of the attempt, so a hook used from a
// concurrent round must be safe for concurrent invocation.
type attemptHook func(client, attempt int, startNS, endNS int64, resp Message, err error)

// callWithPolicy performs one logical call to client i under the
// policy: each attempt is deadline-bounded, failed attempts are retried
// with exponential backoff + jitter, and permanently dead clients fail
// fast. It returns the last error when all attempts fail. hook, when
// non-nil, observes every attempt — the seam the quorum layer uses for
// telemetry and waste accounting.
func callWithPolicy(t Transport, i int, req Message, p RetryPolicy, hook attemptHook) (Message, error) {
	p = p.withDefaults()
	var lastErr error
	for attempt := 0; attempt <= p.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(p.backoff(attempt))
		}
		var startNS int64
		if hook != nil {
			startNS = obs.NowNanos()
		}
		msg, err := callOnce(t, i, req, p.Timeout)
		if hook != nil {
			hook(i, attempt+1, startNS, obs.NowNanos(), msg, err)
		}
		if err == nil {
			return msg, nil
		}
		lastErr = err
		if errors.Is(err, ErrClientDead) {
			break // permanent: retrying cannot help
		}
	}
	return Message{}, lastErr
}

// QuorumConfig controls a partial-participation round: how hard to try
// per client (Retry), what fraction of the addressed clients must
// answer for the round to count, and an observer for drops.
type QuorumConfig struct {
	// MinFraction ∈ (0, 1] is the fraction of addressed clients that
	// must respond (at least one). 0 or out-of-range means 1.0 — full
	// participation, the paper's Equation 1 regime.
	MinFraction float64
	// Retry is the per-client call policy.
	Retry RetryPolicy
	// OnDrop, when non-nil, observes each client that failed its
	// logical call. It is invoked sequentially in ascending position
	// order after the round's barrier, so it needs no locking.
	OnDrop func(client int, err error)
	// Span, when valid and a recorder is installed, is the round's
	// span context: the quorum layer opens one call span per addressed
	// client under it, a span per attempt under each call, and — for
	// attempts that delivered — the client-local operation spans the
	// response shipped back under codec.SpansKey. The zero value
	// disables tracing for the round.
	Span obs.SpanContext
}

// need returns the survivor count required out of n addressed clients.
func (q QuorumConfig) need(n int) int {
	f := q.MinFraction
	if f <= 0 || f > 1 {
		f = 1
	}
	k := int(math.Ceil(f * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// BroadcastQuorum sends the request to every client under the quorum
// config and returns the survivors' responses plus their client
// indices (ascending). It fails with ErrQuorumNotMet when fewer than
// ⌈MinFraction·N⌉ clients respond. Aggregate over the survivors with
// WeightedLoss/FedAvg using the returned indices.
func (s *Server) BroadcastQuorum(req Message, q QuorumConfig) ([]Message, []int, error) {
	n := s.transport.NumClients()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return s.CallSubsetQuorum(all, req, q)
}

// CallSubsetQuorum is BroadcastQuorum over an explicit client subset.
// Responses and indices are returned
// in the subset's order, restricted to survivors.
func (s *Server) CallSubsetQuorum(clients []int, req Message, q QuorumConfig) ([]Message, []int, error) {
	n := len(clients)
	if n == 0 {
		return nil, nil, ErrNoClients
	}
	out := make([]Message, n)
	errs := make([]error, n)
	// The per-attempt hook bills waste (request payloads shipped on
	// failed attempts) and, in a traced round, emits the attempt span.
	// It runs on concurrent per-client goroutines; accountWaste locks
	// internally and Recorders are concurrent-safe by contract.
	rec := s.recorder()
	reqBytes := s.size(req)
	traced := rec != nil && q.Span.Valid()
	hook := func(client, attempt int, startNS, endNS int64, resp Message, err error) {
		if err != nil {
			s.accountWaste(1, reqBytes)
		}
		if !traced {
			return
		}
		bytes := reqBytes
		if err == nil {
			bytes += s.size(resp)
		}
		emitAttemptSpans(rec, q.Span, client, attempt, startNS, endNS, bytes, resp, err)
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		//lint:allow hotalloc federated fan-out is one goroutine per client per round by design
		go func(i, c int) {
			defer wg.Done()
			var call obs.SpanStart
			if traced {
				call = obs.SpanStart{
					Trace:   obs.HexID(q.Span.Trace),
					Span:    obs.HexID(obs.DeriveSpan(q.Span.Span, obs.SpanCall, c)),
					Parent:  obs.HexID(q.Span.Span),
					Kind:    obs.SpanCall,
					Name:    obs.SpanCall,
					Seq:     c,
					Client:  c,
					StartNS: obs.NowNanos(),
				}
				rec.Record(call)
			}
			out[i], errs[i] = callWithPolicy(s.transport, c, req, q.Retry, hook)
			if traced {
				rec.Record(call.End(obs.NowNanos(), errs[i]))
			}
		}(i, c)
	}
	wg.Wait()

	msgs := make([]Message, 0, n)
	idx := make([]int, 0, n)
	var firstDrop error
	for i, c := range clients {
		if errs[i] == nil {
			msgs = append(msgs, out[i])
			idx = append(idx, c)
			continue
		}
		if firstDrop == nil {
			firstDrop = fmt.Errorf("client %d: %v", c, errs[i]) //lint:allow iboxing drop-path diagnostics, not steady-state iteration work
		}
		if q.OnDrop != nil {
			q.OnDrop(c, errs[i])
		}
	}
	if need := q.need(n); len(idx) < need {
		return nil, nil, fmt.Errorf("%w: %d/%d clients responded, need %d (first drop: %v)",
			ErrQuorumNotMet, len(idx), n, need, firstDrop)
	}
	s.account(true, req, msgs)
	return msgs, idx, nil
}

// emitAttemptSpans reports one attempt's span — carrying the bytes it
// moved and its outcome — and, for an attempt that delivered, the
// client-local operation spans its response shipped back. The attempt
// window is the pair of clock reads callWithPolicy took around the
// transport call, so a client op the call contains lies inside it.
// Span IDs are derived from position (round span → call → attempt →
// op group), never counters, so concurrent emission order cannot
// perturb identity. The shipped span triples are consumed here: the
// key is deleted so client-local timings never reach the engine's
// protocol handling. Runs on the attempt's own goroutine; the
// response maps are exclusively its client's until the round barrier.
func emitAttemptSpans(rec obs.Recorder, round obs.SpanContext, client, attempt int, startNS, endNS, bytes int64, resp Message, err error) {
	callID := obs.DeriveSpan(round.Span, obs.SpanCall, client)
	attemptID := obs.DeriveSpan(callID, obs.SpanAttempt, attempt)
	att := obs.SpanStart{
		Trace:   obs.HexID(round.Trace),
		Span:    obs.HexID(attemptID),
		Parent:  obs.HexID(callID),
		Kind:    obs.SpanAttempt,
		Name:    obs.SpanAttempt,
		Seq:     attempt,
		Client:  client,
		StartNS: startNS,
	}
	rec.Record(att)
	end := att.End(endNS, err)
	end.Bytes, end.Outcome = bytes, outcomeOf(err)
	rec.Record(end)
	if err != nil {
		return
	}
	spans := resp.Ints[codec.SpansKey]
	for g := 0; g+2 < len(spans); g += 3 {
		op := obs.SpanStart{
			Trace:   att.Trace,
			Span:    obs.HexID(obs.DeriveSpan(attemptID, obs.SpanClient, g/3)),
			Parent:  att.Span,
			Kind:    obs.SpanClient,
			Name:    obs.ClientOpName(spans[g]),
			Seq:     g / 3,
			Client:  client,
			StartNS: int64(spans[g+1]),
		}
		rec.Record(op)
		rec.Record(op.End(op.StartNS+int64(spans[g+2]), nil))
	}
	delete(resp.Ints, codec.SpansKey)
}
