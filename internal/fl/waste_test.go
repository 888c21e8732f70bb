package fl

import (
	"sync"
	"testing"

	"fedforecaster/internal/obs"
)

// captureRecorder collects typed events under a mutex (quorum rounds
// emit from one goroutine per client).
type captureRecorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *captureRecorder) Record(ev obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// attempt pairs one attempt span's start and end.
type attempt struct {
	start obs.SpanStart
	end   obs.SpanEnd
}

// attempts returns one client's attempt spans in attempt order (a
// client's attempts run one after another on its goroutine).
func (c *captureRecorder) attempts(client int) []attempt {
	c.mu.Lock()
	defer c.mu.Unlock()
	ends := map[string]obs.SpanEnd{}
	for _, ev := range c.events {
		if e, ok := ev.(obs.SpanEnd); ok && e.Kind == obs.SpanAttempt {
			ends[e.Span] = e
		}
	}
	var out []attempt
	for _, ev := range c.events {
		if s, ok := ev.(obs.SpanStart); ok && s.Kind == obs.SpanAttempt && s.Client == client {
			out = append(out, attempt{s, ends[s.Span]})
		}
	}
	return out
}

// injections counts recorded ChaosInject events by fault label.
func (c *captureRecorder) injections() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int{}
	for _, ev := range c.events {
		if ci, ok := ev.(obs.ChaosInject); ok {
			out[ci.Fault]++
		}
	}
	return out
}

// TestQuorumWasteAccounting is the accounting fix's regression test:
// request payloads shipped on failed attempts must show up in
// WastedCalls/WastedBytes, while useful Calls/BytesDown bill only
// successful logical calls.
func TestQuorumWasteAccounting(t *testing.T) {
	clients := []Client{&echoClient{id: 0}, &echoClient{id: 1}, &echoClient{id: 2}}
	chaos := NewChaos(NewInProcWire(clients, WireOpts{}), 7)
	// Client 1 flaps twice before answering; bounded retry masks it.
	chaos.SetFaults(1, ClientFaults{FailFirst: 2})
	srv := NewServer(chaos)
	defer srv.Close()

	rec := &captureRecorder{}
	srv.SetRecorder(rec)
	chaos.SetRecorder(rec)

	req := NewMessage("fit/waste")
	req.Scalars["offset"] = 1 // non-empty payload so waste is non-zero
	round := obs.SpanContext{Trace: 1, Span: 2}
	resps, idx, err := srv.BroadcastQuorum(req, QuorumConfig{Retry: RetryPolicy{MaxRetries: 3}, Span: round})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 || len(idx) != 3 {
		t.Fatalf("survivors = %d, want 3", len(idx))
	}

	stats := srv.Stats()
	if stats.Calls != 3 {
		t.Errorf("Calls = %d, want 3 (successful logical calls only)", stats.Calls)
	}
	if stats.WastedCalls != 2 {
		t.Errorf("WastedCalls = %d, want 2 (two flapped attempts)", stats.WastedCalls)
	}
	wantWaste := 2 * losslessSize(req)
	if stats.WastedBytes != wantWaste {
		t.Errorf("WastedBytes = %d, want %d (request payload per failed attempt)", stats.WastedBytes, wantWaste)
	}
	if stats.BytesDown != 3*losslessSize(req) {
		t.Errorf("BytesDown = %d, want %d (successful deliveries only)", stats.BytesDown, 3*losslessSize(req))
	}

	// Sub must carry the waste fields too.
	delta := srv.Stats().Sub(Stats{WastedCalls: 1, WastedBytes: losslessSize(req)})
	if delta.WastedCalls != 1 || delta.WastedBytes != losslessSize(req) {
		t.Errorf("Sub lost waste fields: %+v", delta)
	}

	// Per-attempt telemetry: client 1 saw two transient attempts then a
	// success, with 1-based attempt numbers and outcome labels, each
	// under client 1's call span in the round.
	c1 := rec.attempts(1)
	if len(c1) != 3 {
		t.Fatalf("client 1 emitted %d attempt spans, want 3", len(c1))
	}
	call1 := obs.HexID(obs.DeriveSpan(round.Span, obs.SpanCall, 1))
	for i, want := range []string{obs.OutcomeTransient, obs.OutcomeTransient, obs.OutcomeOK} {
		if c1[i].end.Outcome != want {
			t.Errorf("client 1 attempt %d outcome = %q, want %q", i+1, c1[i].end.Outcome, want)
		}
		if c1[i].start.Seq != i+1 {
			t.Errorf("client 1 span %d attempt = %d, want %d", i, c1[i].start.Seq, i+1)
		}
		if c1[i].start.Parent != call1 {
			t.Errorf("client 1 attempt %d parent = %s, want its call span %s", i+1, c1[i].start.Parent, call1)
		}
	}
	// Failed attempts bill the request only; the success adds the
	// response payload.
	if c1[0].end.Bytes != losslessSize(req) {
		t.Errorf("failed attempt bytes = %d, want request-only %d", c1[0].end.Bytes, losslessSize(req))
	}
	if c1[2].end.Bytes <= losslessSize(req) {
		t.Errorf("successful attempt bytes = %d, want > request %d (response included)", c1[2].end.Bytes, losslessSize(req))
	}

	// The chaos layer reported its injections.
	if inj := rec.injections(); inj["transient"] != 2 {
		t.Errorf("chaos injections = %v, want 2 transient", inj)
	}

	// Clients that never failed waste nothing and emit one ok attempt.
	if c0 := rec.attempts(0); len(c0) != 1 || c0[0].end.Outcome != obs.OutcomeOK || c0[0].start.Seq != 1 {
		t.Errorf("client 0 attempt spans = %+v, want one first-attempt ok", c0)
	}
}

// TestQuorumDeadClientWaste: a permanently dead client wastes exactly
// one attempt (fail-fast, no retries) and its payload.
func TestQuorumDeadClientWaste(t *testing.T) {
	clients := []Client{&echoClient{id: 0}, &echoClient{id: 1}}
	chaos := NewChaos(NewInProcWire(clients, WireOpts{}), 3)
	chaos.Kill(1)
	srv := NewServer(chaos)
	defer srv.Close()

	req := NewMessage("fit/dead")
	req.Scalars["x"] = 1
	_, idx, err := srv.BroadcastQuorum(req, QuorumConfig{MinFraction: 0.5, Retry: RetryPolicy{MaxRetries: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("survivors = %v, want [0]", idx)
	}
	stats := srv.Stats()
	if stats.WastedCalls != 1 {
		t.Errorf("WastedCalls = %d, want 1 (dead clients fail fast)", stats.WastedCalls)
	}
	if stats.WastedBytes != losslessSize(req) {
		t.Errorf("WastedBytes = %d, want %d", stats.WastedBytes, losslessSize(req))
	}
}

// TestOutcomeOf pins the error→outcome classification.
func TestOutcomeOf(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, obs.OutcomeOK},
		{ErrClientDead, obs.OutcomeDead},
		{ErrCallTimeout, obs.OutcomeTimeout},
		{ErrTransient, obs.OutcomeTransient},
		{ErrQuorumNotMet, obs.OutcomeError},
	}
	for _, c := range cases {
		if got := outcomeOf(c.err); got != c.want {
			t.Errorf("outcomeOf(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
