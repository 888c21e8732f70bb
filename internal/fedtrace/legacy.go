package fedtrace

import (
	"encoding/json"
	"strconv"

	"fedforecaster/internal/obs"
)

// legacyLift reads traces written while the flat round_start,
// round_end and client_call records still ran beside the spans: it
// folds each record into the attributes today's spans carry, so such
// a trace analyzes like a new one. Each record was emitted next to the
// span it describes — a round_start right before its round's
// span_start, a round_end right after that span's span_end, and a
// client_call right before its attempt's span_start and span_end on
// the attempt's goroutine — so stream order pairs them. The flat run,
// phase and note records carry nothing the spans lack; DecodeEvent
// skips them.
type legacyLift struct {
	round    *legacyRound           // last round_start, until its span opens
	roundID  uint64                 // the open round span
	roundEnd *obs.SpanEnd           // the open round span's end, once seen
	attempts map[string]*legacyCall // attempt span ID → its client_call
}

type legacyRound struct {
	Kind      string `json:"kind"`
	Batch     int    `json:"batch"`
	Clients   int    `json:"clients"`
	Survivors int    `json:"survivors"`
}

type legacyCall struct {
	Client  int    `json:"client"`
	Attempt int    `json:"attempt"`
	Bytes   int64  `json:"bytes"`
	Outcome string `json:"outcome"`
}

// record consumes one flat record, reporting whether name was one.
func (l *legacyLift) record(name string, data []byte) (bool, error) {
	switch name {
	case "round_start":
		l.round = &legacyRound{}
		return true, json.Unmarshal(data, l.round)
	case "round_end":
		var rd legacyRound
		if err := json.Unmarshal(data, &rd); err != nil {
			return true, err
		}
		if l.roundEnd != nil {
			l.roundEnd.Survivors = rd.Survivors
			l.roundEnd = nil
		}
		return true, nil
	case "client_call":
		c := &legacyCall{}
		if err := json.Unmarshal(data, c); err != nil {
			return true, err
		}
		call := obs.DeriveSpan(l.roundID, obs.SpanCall, c.Client)
		if l.attempts == nil {
			l.attempts = map[string]*legacyCall{}
		}
		l.attempts[obs.HexID(obs.DeriveSpan(call, obs.SpanAttempt, c.Attempt))] = c
		return true, nil
	}
	return false, nil
}

// span completes a decoded span event from the records before it.
func (l *legacyLift) span(ev obs.Event) {
	switch e := ev.(type) {
	case *obs.SpanStart:
		if e.Kind != obs.SpanRound {
			return
		}
		id, err := strconv.ParseUint(e.Span, 16, 64)
		if err != nil {
			id = 0 // a malformed round ID pairs with no client_call
		}
		l.roundID, l.roundEnd = id, nil
		if l.round != nil && l.round.Kind == e.Name {
			e.Batch, e.Clients = l.round.Batch, l.round.Clients
		}
		l.round = nil
	case *obs.SpanEnd:
		if c, ok := l.attempts[e.Span]; ok {
			e.Bytes, e.Outcome = c.Bytes, c.Outcome
			delete(l.attempts, e.Span)
		}
		if e.Span == obs.HexID(l.roundID) {
			l.roundEnd = e
		}
	}
}
