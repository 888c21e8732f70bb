package fl

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fedforecaster/internal/fl/codec"
)

// TCPTransport is the distributed deployment path: clients dial the
// server (as in Flower) and serve requests over length-prefixed codec
// v1 frames. There is no handshake: each frame's own version byte
// (codec.Version1) is what rejects a peer speaking a foreign format,
// and quantization is an encoder-side tier — each end encodes under
// its own WireOpts and any v1 decoder reads any tier.
//
// The connection table is guarded by mu: Call, NumClients, Close and
// SetCallTimeout may run concurrently (quorum broadcasts race with
// shutdown), so every access to conns/callTimeout takes the lock.
type TCPTransport struct {
	listener net.Listener
	wire     WireOpts
	mu       sync.Mutex
	conns    []*tcpConn // guarded by mu
	// callTimeout, when > 0, bounds each Call via net.Conn.SetDeadline
	// so a hung or partitioned client errors out instead of blocking a
	// round forever. guarded by mu.
	callTimeout time.Duration
}

type tcpConn struct {
	conn net.Conn
	mu   sync.Mutex
	// dead marks a connection whose stream failed. A torn frame
	// desynchronizes the length prefixes, so the connection is closed
	// and every later call fails fast with ErrClientDead.
	// guarded by mu.
	dead bool
}

// markDeadLocked closes the connection and poisons it; callers hold
// c.mu.
func (c *tcpConn) markDeadLocked() {
	c.dead = true
	//lint:allow errdrop connection is being poisoned; close error adds nothing to ErrClientDead
	c.conn.Close()
}

// maxFrame bounds a frame read so a corrupt or hostile length prefix
// cannot induce an arbitrarily large allocation.
const maxFrame = 64 << 20

// frameHeader is the length prefix's size. Senders build each frame
// behind a reserved header (newFrame) so it goes out in one write
// without a copy.
const frameHeader = 4

// Response status bytes, ahead of the codec frame in every reply.
const (
	statusOK  = 0
	statusErr = 1
)

// newFrame returns an empty frame with its length prefix reserved.
func newFrame() []byte { return make([]byte, frameHeader) }

// writeFrame fills in the reserved length prefix and sends the frame
// as a single write.
func writeFrame(conn net.Conn, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	_, err := conn.Write(frame)
	return err
}

// readFrame receives one length-prefixed frame and returns its
// payload.
func readFrame(conn net.Conn) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("fl: frame length %d exceeds %d", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ListenTCP starts a server transport that accepts exactly
// expectClients connections on addr (use "127.0.0.1:0" for an
// ephemeral port) within the timeout and encodes its requests under
// wire. A non-nil addrCh receives the bound address before the call
// blocks for connections — needed when clients in the same process
// must learn an ephemeral port.
func ListenTCP(addr string, expectClients int, timeout time.Duration, addrCh chan<- string, wire WireOpts) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: listen: %w", err)
	}
	if addrCh != nil {
		addrCh <- ln.Addr().String()
	}
	// The connection table is built in a local slice and the transport
	// constructed only once it is complete: the guarded conns field is
	// never touched outside its mutex, not even single-threaded setup.
	var conns []*tcpConn
	deadline := time.Now().Add(timeout)
	for len(conns) < expectClients {
		if dl, ok := ln.(*net.TCPListener); ok {
			if err := dl.SetDeadline(deadline); err != nil {
				//lint:allow errdrop accept already failed; listener close error would mask the root cause
				ln.Close()
				return nil, err
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			//lint:allow errdrop accept already failed; listener close error would mask the root cause
			ln.Close()
			return nil, fmt.Errorf("fl: accept (have %d/%d clients): %w", len(conns), expectClients, err)
		}
		conns = append(conns, &tcpConn{conn: conn})
	}
	return &TCPTransport{listener: ln, wire: wire, conns: conns}, nil
}

// Wire reports the transport's configured wire format — the options
// the Server bills under. Billing is per fleet: a client that encodes
// its replies under a different quantization tier is still billed at
// the server's.
func (t *TCPTransport) Wire() WireOpts { return t.wire }

// SetCallTimeout installs a per-call deadline (0 disables). Safe to
// call concurrently with in-flight rounds; it applies from the next
// Call.
//
//lint:allow deadexport test hook: the TCP fault tests put a socket deadline on each call
func (t *TCPTransport) SetCallTimeout(d time.Duration) {
	t.mu.Lock()
	t.callTimeout = d
	t.mu.Unlock()
}

// NumClients reports the connected client count.
func (t *TCPTransport) NumClients() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// Call sends the request to client i and waits for its reply, bounded
// by the configured call timeout. Calls to the same client serialize;
// calls to distinct clients proceed in parallel. A connection whose
// stream fails (timeout, peer death, a frame that does not decode) is
// dropped: it is closed and every later call to it returns
// ErrClientDead immediately, so quorum rounds skip it without waiting.
//
// The reply is a status byte followed by either a codec frame
// (statusOK) or an error string (statusErr — an application-level
// error: the stream stays in sync and the call is retryable).
func (t *TCPTransport) Call(i int, req Message) (Message, error) {
	t.mu.Lock()
	if i < 0 || i >= len(t.conns) {
		t.mu.Unlock()
		return Message{}, fmt.Errorf("fl: client index %d out of range", i)
	}
	c := t.conns[i]
	timeout := t.callTimeout
	wire := t.wire
	t.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return Message{}, fmt.Errorf("fl: client %d: %w", i, ErrClientDead)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: client %d: set deadline: %v: %w", i, err, ErrClientDead)
	}
	if err := writeFrame(c.conn, codec.AppendEncode(newFrame(), req, wire.Quant)); err != nil {
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: send to client %d: %v: %w", i, err, ErrClientDead)
	}
	payload, err := readFrame(c.conn)
	if err != nil {
		c.markDeadLocked()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return Message{}, fmt.Errorf("fl: receive from client %d: %v (%w): %w", i, err, ErrCallTimeout, ErrClientDead)
		}
		return Message{}, fmt.Errorf("fl: receive from client %d: %v: %w", i, err, ErrClientDead)
	}
	if len(payload) < 1 {
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: client %d: empty response frame: %w", i, ErrClientDead)
	}
	switch payload[0] {
	case statusErr:
		return Message{}, fmt.Errorf("fl: client %d error: %s", i, payload[1:])
	case statusOK:
		msg, err := codec.Decode(payload[1:])
		if err != nil {
			c.markDeadLocked()
			return Message{}, fmt.Errorf("fl: decode from client %d: %v: %w", i, err, ErrClientDead)
		}
		return msg, nil
	default:
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: client %d: unknown response status %d: %w", i, payload[0], ErrClientDead)
	}
}

// Close terminates all client connections and the listener.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	conns := append([]*tcpConn(nil), t.conns...)
	ln := t.listener
	t.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		c.markDeadLocked()
		c.mu.Unlock()
	}
	return ln.Close()
}

// ServeTCP connects a client to the server at addr and serves requests
// until the connection closes or stop is closed, encoding responses
// under wire. It returns nil on a clean shutdown (the server closed the
// connection, before or between requests) and an error wrapping
// codec.ErrMalformed when the server sends a frame that does not
// decode.
func ServeTCP(addr string, client Client, stop <-chan struct{}, wire WireOpts) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("fl: dial: %w", err)
	}
	defer conn.Close()
	if stop != nil {
		// The stop watcher must not outlive this call: a caller that never
		// closes stop (an abandoned channel, or reuse across reconnects)
		// would otherwise leak one goroutine per serve. watchDone is
		// closed on return, so the watcher always has a termination path.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-stop:
				//lint:allow errdrop shutdown signal path; the in-flight call observes the closed socket
				conn.Close()
			case <-watchDone:
			}
		}()
	}
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return nil // connection closed: clean shutdown
		}
		req, err := codec.Decode(frame)
		if err != nil {
			return fmt.Errorf("fl: decode request: %w", err)
		}
		resp, derr := Dispatch(client, req)
		reply := newFrame()
		if derr != nil {
			reply = append(append(reply, statusErr), derr.Error()...)
		} else {
			reply = codec.AppendEncode(append(reply, statusOK), resp, wire.Quant)
		}
		if err := writeFrame(conn, reply); err != nil {
			return fmt.Errorf("fl: reply: %w", err)
		}
	}
}
