package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
)

// Span kinds: the level of the causal hierarchy a span sits at. A run
// owns its phases, a phase owns the federated rounds it drives, a
// round owns one call span per addressed client, a call owns its
// attempts (1 + retries), and a successful attempt owns the client's
// wire-shipped local operation spans.
const (
	SpanRun     = "run"
	SpanPhase   = "phase"
	SpanRound   = "round"
	SpanCall    = "call"
	SpanAttempt = "attempt"
	SpanClient  = "client"
)

// Client-side operation codes for wire-shipped local spans: a client
// handling a traced request reports [code, start_ns, duration_ns]
// triples back to the server, which turns them into SpanClient spans
// under the delivering attempt. Codes are part of the wire contract —
// append-only.
const (
	ClientOpProperties = 1
	ClientOpPrepare    = 2
	ClientOpEvaluate   = 3
	ClientOpFit        = 4
)

// ClientOpName renders a client-op code as the span name.
func ClientOpName(code int) string {
	switch code {
	case ClientOpProperties:
		return "properties"
	case ClientOpPrepare:
		return "prepare"
	case ClientOpEvaluate:
		return "evaluate"
	case ClientOpFit:
		return "fit"
	}
	return "op" + strconv.Itoa(code)
}

// SpanContext identifies one span within one trace — the context a
// round propagates to its clients inside the request message.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a real trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// fnvMix hashes the parts into a nonzero 64-bit ID.
func fnvMix(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		//lint:allow errdrop fnv's Write is documented to never fail
		h.Write([]byte(p))
		//lint:allow errdrop fnv's Write is documented to never fail
		h.Write([]byte{0})
	}
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

// DeriveTrace derives the run's TraceID from its seed. Identity is a
// pure function of the seed so two runs at one seed yield one trace
// ID — the determinism policy extends to trace identity.
func DeriveTrace(seed int64) uint64 {
	return fnvMix("trace", strconv.FormatInt(seed, 10))
}

// DeriveSpan derives a span ID from its position in the hierarchy:
// the parent span (or the trace ID for the root), the span kind, and
// the deterministic sibling sequence number. Position-derived IDs —
// rather than allocation-order counters — keep span identity stable
// even when concurrent goroutines emit spans in racy order.
func DeriveSpan(parent uint64, kind string, seq int) uint64 {
	return fnvMix(strconv.FormatUint(parent, 16), kind, strconv.Itoa(seq))
}

// PackSpanContext packs a span context into the single 32-digit
// lowercase-hex string propagated inside a request message. The shape
// is deliberate: the codec's packed-hex string form ships it in 18
// bytes under wire v1, and the key it travels under is interned.
func PackSpanContext(c SpanContext) string {
	return fmt.Sprintf("%016x%016x", c.Trace, c.Span)
}

// HexID renders a span/trace ID the 16-digit lowercase-hex way span
// events carry it.
func HexID(v uint64) string { return fmt.Sprintf("%016x", v) }

// parseHexID reverses hexID (0 for malformed input).
func parseHexID(s string) uint64 {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// SpanStart opens one span. All identity fields (IDs, kind, name,
// seq, client) are deterministic functions of the run; StartNS is the
// only wall-clock field. Seq is the span's deterministic sibling
// index (phase order, per-run round sequence, client index, attempt
// number, client-op group index) — reconstructors order siblings by
// it, never by timestamps. Client is the client index a call/client
// span belongs to, -1 for server-side spans. A round span carries the
// round's candidate count (Batch, 0 for metadata rounds) and the
// number of clients it addresses.
type SpanStart struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Seq     int    `json:"seq"`
	Client  int    `json:"client"`
	StartNS int64  `json:"start_ns"`
	Batch   int    `json:"batch,omitempty"`
	Clients int    `json:"clients,omitempty"`
}

// EventName implements Event.
func (SpanStart) EventName() string { return "span_start" }

// SpanEnd closes a span, carrying the only other wall-clock reading
// (EndNS) and the outcome. It repeats the span's kind, name and client
// and carries its duration, so a consumer that aggregates spans (the
// Prometheus recorder) updates from this one event without joining it
// to its start. A round span ends with its survivor count; an attempt
// span with the bytes it moved (request only on failure, request and
// response on success) and its outcome label.
type SpanEnd struct {
	Trace      string `json:"trace"`
	Span       string `json:"span"`
	Kind       string `json:"kind"`
	Name       string `json:"name"`
	Client     int    `json:"client"`
	EndNS      int64  `json:"end_ns"`
	DurationNS int64  `json:"duration_ns"`
	Err        string `json:"err,omitempty"`
	Survivors  int    `json:"survivors,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`
	Outcome    string `json:"outcome,omitempty"`
}

// EventName implements Event.
func (SpanEnd) EventName() string { return "span_end" }

// End returns the event closing s at endNS with err's text (none for
// nil): the identity fields repeated, the duration measured from
// s.StartNS. Callers set a round's or an attempt's end attributes on
// the result.
func (s SpanStart) End(endNS int64, err error) SpanEnd {
	e := SpanEnd{
		Trace:      s.Trace,
		Span:       s.Span,
		Kind:       s.Kind,
		Name:       s.Name,
		Client:     s.Client,
		EndNS:      endNS,
		DurationNS: endNS - s.StartNS,
	}
	if err != nil {
		e.Err = err.Error()
	}
	return e
}

// CommsSummary is the run's final communication accounting mirrored
// into the event stream (the fields of fl.Stats, as plain integers so
// obs needs no fl import) — the waste source for trace analyzers.
type CommsSummary struct {
	Rounds      int   `json:"rounds"`
	Calls       int   `json:"calls"`
	BytesDown   int64 `json:"bytes_down"`
	BytesUp     int64 `json:"bytes_up"`
	WastedCalls int   `json:"wasted_calls"`
	WastedBytes int64 `json:"wasted_bytes"`
}

// EventName implements Event.
func (CommsSummary) EventName() string { return "comms_summary" }

// DecodeEvent parses one JSONL "data" payload back into its typed
// event by the envelope's event name — the read side of the JSONL
// schema, used by offline analyzers (cmd/fedtrace). Unknown names
// return (nil, nil): an older reader skips a newer event, and a trace
// written before spans were the only timing record still decodes, its
// flat run/phase/round/client_call/note records skipped.
func DecodeEvent(name string, data []byte) (Event, error) {
	var ev Event
	switch name {
	case "client_dropped":
		ev = &ClientDropped{}
	case "bo_iteration":
		ev = &BOIteration{}
	case "client_cache":
		ev = &ClientCache{}
	case "candidate_eval":
		ev = &CandidateEval{}
	case "chaos_inject":
		ev = &ChaosInject{}
	case "span_start":
		ev = &SpanStart{}
	case "span_end":
		ev = &SpanEnd{}
	case "comms_summary":
		ev = &CommsSummary{}
	default:
		return nil, nil
	}
	if err := json.Unmarshal(data, ev); err != nil {
		return nil, fmt.Errorf("obs: decoding %s event: %w", name, err)
	}
	return ev, nil
}
