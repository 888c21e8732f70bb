// Package fl is the federated-learning substrate of this
// reproduction — the role the Flower framework plays in the paper. It
// defines the client contract (properties / fit / evaluate, mirroring
// Flower's ClientApp surface), a server that drives rounds over any
// transport, weighted loss aggregation, and FedAvg over flat weight
// vectors. Two transports are provided: in-process (fast simulation)
// and TCP (real distributed deployment); both ship every message as a
// codec v1 frame.
package fl

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"fedforecaster/internal/fl/codec"
	"fedforecaster/internal/obs"
)

// Message is the unit of client↔server communication: a kind tag plus
// typed payload maps. It is an alias of codec.Message — the payload
// type lives in the wire-format package so both the transports here
// and the codec can name it without an import cycle. See the codec
// package for the type's Normalize method and its binary encoding.
type Message = codec.Message

// NewMessage returns an empty message of the given kind.
func NewMessage(kind string) Message { return codec.NewMessage(kind) }

// Client is the behaviour a federated participant implements
// (Algorithm 1's client side).
type Client interface {
	// Properties answers metadata queries (meta-features, split sizes).
	Properties(req Message) (Message, error)
	// Fit trains locally per the server's instructions and returns
	// updates and metrics.
	Fit(req Message) (Message, error)
	// Evaluate computes local validation metrics for the server's
	// candidate configuration.
	Evaluate(req Message) (Message, error)
}

// Dispatch routes a request to the right Client method by kind
// convention: "fit/..." → Fit, "eval/..." → Evaluate, everything else
// → Properties. Both transports share it.
func Dispatch(c Client, req Message) (Message, error) {
	switch {
	case strings.HasPrefix(req.Kind, "fit/"):
		return c.Fit(req)
	case strings.HasPrefix(req.Kind, "eval/"):
		return c.Evaluate(req)
	default:
		return c.Properties(req)
	}
}

// Transport abstracts how the server reaches its clients.
type Transport interface {
	// NumClients reports the number of connected clients.
	NumClients() int
	// Call sends a request to client i and waits for its response.
	Call(i int, req Message) (Message, error)
	// Close releases transport resources.
	Close() error
}

// Stats is a server's cumulative communication accounting. Byte
// counts are exact encoded frame lengths under the transport's wire
// format (see WireTransport; lossless v1 for transports that do not
// report one).
// Useful communication (Calls / BytesDown / BytesUp) bills only
// successful logical calls; wire waste — request payloads shipped on
// attempts that failed and had to be retried or dropped — is tracked
// separately in WastedCalls / WastedBytes by the quorum retry layer.
type Stats struct {
	// Rounds counts multi-client rounds driven (BroadcastQuorum,
	// CallSubsetQuorum).
	Rounds int
	// Calls counts successful logical client calls.
	Calls int
	// BytesDown counts server→client payload bytes (requests).
	BytesDown int64
	// BytesUp counts client→server payload bytes (responses).
	BytesUp int64
	// WastedCalls counts failed per-attempt client calls under the
	// quorum retry layer (transient faults, timeouts, dead clients) —
	// attempts that consumed wire and wall-clock without producing a
	// usable response.
	WastedCalls int
	// WastedBytes counts the request payload bytes shipped on those
	// failed attempts.
	WastedBytes int64
}

// Sub returns the stats delta s − base, for scoping accounting to one
// run on a shared server.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Rounds:      s.Rounds - base.Rounds,
		Calls:       s.Calls - base.Calls,
		BytesDown:   s.BytesDown - base.BytesDown,
		BytesUp:     s.BytesUp - base.BytesUp,
		WastedCalls: s.WastedCalls - base.WastedCalls,
		WastedBytes: s.WastedBytes - base.WastedBytes,
	}
}

// Server drives federated rounds over a transport.
type Server struct {
	transport Transport
	// wire is the transport's wire format, snapshotted at construction;
	// accounting sizes every message under it (see WireOpts.Size).
	wire WireOpts

	// statsMu guards stats and rec: rounds may (in principle) be driven
	// concurrently, and accounting must never race them.
	statsMu sync.Mutex
	stats   Stats        // guarded by statsMu
	rec     obs.Recorder // guarded by statsMu
}

// NewServer returns a server bound to the transport. If the transport
// reports its wire format (WireTransport), byte accounting follows it;
// otherwise messages are billed as lossless v1 frames.
func NewServer(t Transport) *Server {
	s := &Server{transport: t}
	if wt, ok := t.(WireTransport); ok {
		s.wire = wt.Wire()
	}
	return s
}

// size bills one message under the transport's wire format. Causal-
// tracing payload (the request's packed span context, the response's
// shipped span timings) is stripped first: Stats bills the protocol,
// and the accounting must stay bit-identical whether or not a
// recorder — and therefore tracing — is attached to the run.
func (s *Server) size(m Message) int64 { return s.wire.Size(stripTrace(m)) }

// stripTrace returns m without its causal-tracing payload; when none
// is present (every untraced run) it returns m unchanged without
// allocating. The copies write the ranged map's own keys back
// verbatim (maporder's key→copy exemption, cf. corruptMessage).
func stripTrace(m Message) Message {
	_, hasTrace := m.Strings[codec.TraceKey]
	_, hasSpans := m.Ints[codec.SpansKey]
	if !hasTrace && !hasSpans {
		return m
	}
	if hasTrace {
		ss := make(map[string]string, len(m.Strings)-1)
		for k, v := range m.Strings {
			if k != codec.TraceKey {
				ss[k] = v
			}
		}
		m.Strings = ss
	}
	if hasSpans {
		is := make(map[string][]int, len(m.Ints)-1)
		for k, v := range m.Ints {
			if k != codec.SpansKey {
				is[k] = v
			}
		}
		m.Ints = is
	}
	return m
}

// SetRecorder installs (or, with nil, removes) the telemetry recorder
// the server's quorum layer emits call and attempt spans to. A
// transport that records events of its own (ChaosTransport's injected
// faults) gets the same recorder. Safe to call between rounds; the
// engine installs its recorder for the duration of a run and clears it
// afterwards.
func (s *Server) SetRecorder(r obs.Recorder) {
	s.statsMu.Lock()
	s.rec = r
	s.statsMu.Unlock()
	if rt, ok := s.transport.(interface{ SetRecorder(obs.Recorder) }); ok {
		rt.SetRecorder(r)
	}
}

// recorder snapshots the current recorder (possibly nil).
func (s *Server) recorder() obs.Recorder {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.rec
}

// accountWaste charges failed attempts: wire shipped (request payloads)
// that produced no usable response. Called from per-client attempt
// hooks, so it takes the stats lock itself.
func (s *Server) accountWaste(calls int, bytes int64) {
	s.statsMu.Lock()
	s.stats.WastedCalls += calls
	s.stats.WastedBytes += bytes
	s.statsMu.Unlock()
}

// outcomeOf classifies a per-attempt error into the obs outcome
// vocabulary.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrClientDead):
		return obs.OutcomeDead
	case errors.Is(err, ErrCallTimeout):
		return obs.OutcomeTimeout
	case errors.Is(err, ErrTransient):
		return obs.OutcomeTransient
	default:
		return obs.OutcomeError
	}
}

// NumClients reports the connected client count.
func (s *Server) NumClients() int { return s.transport.NumClients() }

// Stats returns a snapshot of the cumulative communication accounting.
func (s *Server) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// account charges one round: the request is billed downstream once per
// successful response, each response upstream. Called once per round
// after its barrier, from a single goroutine.
func (s *Server) account(round bool, req Message, resps []Message) {
	down := s.size(req)
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if round {
		s.stats.Rounds++
	}
	for _, r := range resps {
		s.stats.Calls++
		s.stats.BytesDown += down
		s.stats.BytesUp += s.size(r)
	}
}

// Call reaches a single client.
func (s *Server) Call(i int, req Message) (Message, error) {
	resp, err := s.transport.Call(i, req)
	if err == nil {
		s.account(false, req, []Message{resp})
	}
	return resp, err
}

// Close shuts down the transport.
func (s *Server) Close() error { return s.transport.Close() }

// ErrNoClients is returned by aggregation helpers on empty input.
var ErrNoClients = errors.New("fl: no clients")

// WeightedLoss aggregates client losses with weights proportional to
// their sample counts — the α_j·L_j sum of Equation 1.
func WeightedLoss(losses, sizes []float64) (float64, error) {
	if len(losses) == 0 || len(losses) != len(sizes) {
		return 0, ErrNoClients
	}
	var total, num float64
	for i, l := range losses {
		total += sizes[i]
		num += float64(sizes[i] * l)
	}
	if total <= 0 {
		return 0, ErrNoClients
	}
	return num / total, nil
}

// FedAvg computes the size-weighted average of flat client weight
// vectors (McMahan et al., 2017). All vectors must share one length.
func FedAvg(weights [][]float64, sizes []float64) ([]float64, error) {
	if len(weights) == 0 || len(weights) != len(sizes) {
		return nil, ErrNoClients
	}
	dim := len(weights[0])
	var total float64
	for i, w := range weights {
		if len(w) != dim {
			return nil, fmt.Errorf("fl: weight vector %d has length %d, want %d", i, len(w), dim)
		}
		total += sizes[i]
	}
	if total <= 0 {
		return nil, ErrNoClients
	}
	avg := make([]float64, dim)
	for i, w := range weights {
		f := sizes[i] / total
		for j, v := range w {
			avg[j] += float64(f * v)
		}
	}
	return avg, nil
}
