package fl

import (
	"fmt"

	"fedforecaster/internal/fl/codec"
)

// InProcTransport runs clients in the server's process — the
// simulation mode used by the evaluation harness (the paper similarly
// simulates clients as processes on a shared cluster). Every message
// is round-tripped through the binary codec, so simulation observes
// the real wire semantics — including quantization loss — and
// accounting bills the exact frame bytes a TCP deployment would ship.
type InProcTransport struct {
	clients []Client
	wire    WireOpts
}

// NewInProcWire returns a transport over in-process clients speaking
// the given wire format.
func NewInProcWire(clients []Client, w WireOpts) *InProcTransport {
	return &InProcTransport{clients: clients, wire: w}
}

// Wire reports the transport's wire format.
func (t *InProcTransport) Wire() WireOpts { return t.wire }

// NumClients reports the client count.
func (t *InProcTransport) NumClients() int { return len(t.clients) }

// roundTrip passes one message through the configured wire format —
// encode then decode, exactly like the TCP transport, so handlers
// observe one canonical message shape regardless of transport (the
// decoder output is canonical by construction).
func (t *InProcTransport) roundTrip(m Message) (Message, error) {
	out, err := codec.Decode(codec.Encode(m, t.wire.Quant))
	if err != nil {
		return Message{}, fmt.Errorf("fl: in-proc wire round-trip: %w", err)
	}
	return out, nil
}

// Call dispatches the request to client i through the wire format.
func (t *InProcTransport) Call(i int, req Message) (Message, error) {
	if i < 0 || i >= len(t.clients) {
		return Message{}, fmt.Errorf("fl: client index %d out of range", i)
	}
	req, err := t.roundTrip(req)
	if err != nil {
		return Message{}, err
	}
	resp, err := Dispatch(t.clients[i], req)
	if err != nil {
		return Message{}, err
	}
	return t.roundTrip(resp)
}

// Close is a no-op for in-process clients.
func (t *InProcTransport) Close() error { return nil }
