package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Frame layout, shared by requests and responses:
//
//	[4] length of the remainder (big endian)
//	[8] request ID
//	[1] kind byte: low bits 0 request, 1 response, 2 error response,
//	    3 shed response; flag 0x80 = a deadline-budget field follows
//	[1] message type
//	[v] optional deadline budget (uvarint of relative milliseconds,
//	    present only when the kind byte carries flagDeadline)
//	[n] payload
//
// The deadline field is strictly additive: frames without flagDeadline
// are byte-identical to the pre-budget format, so peers that never set
// the flag interoperate unchanged.
//
// maxFrame bounds the payload a peer will accept.
const (
	kindRequest  = 0
	kindResponse = 1
	kindError    = 2
	// kindShed marks a response from the server's admission control: the
	// request was refused before any work was done. It is a distinct kind
	// (not a kindError) so clients surface the typed ErrShed and retry
	// elsewhere rather than treating it as an application failure.
	kindShed = 3

	// flagDeadline marks a frame whose payload is prefixed by a
	// deadline-budget varint.
	flagDeadline = 0x80
	kindMask     = 0x7f

	maxFrame = 64 << 20

	// frameReadBuf sizes the one buffered reader per connection: a frame
	// that fits arrives in a single read(2), and back-to-back frames share
	// one. A larger frame's remainder bypasses the buffer and is read
	// straight into its payload.
	frameReadBuf = 8 << 10
	// maxKeptFrameBuf bounds the frame assembly buffer a connection keeps
	// between writes; one grown beyond it by a large frame is let go.
	maxKeptFrameBuf = 16 << 10
)

// TCP is a Transport endpoint backed by a real TCP listener. Outbound
// calls reuse one persistent connection per destination and pipeline:
// any number of requests may be in flight on one connection, each frame
// carrying a request ID that a per-connection reader goroutine matches
// to its waiting caller. The server side likewise dispatches each
// request to its own goroutine (responses share a write lock), so
// responses may legally return out of order.
type TCP struct {
	ln      net.Listener
	addr    Addr // the listener's address, fixed for the endpoint's life
	handler Handler
	meter   *metrics.Meter

	// baseCtx is the root of every server-side handler context; Close
	// cancels it so stuck handlers unwind during shutdown.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	conns    map[Addr]*tcpConn     // outbound, pooled by destination
	accepted map[net.Conn]struct{} // inbound, closed on shutdown
	closed   bool
	wg       sync.WaitGroup
}

// maxAbandoned bounds the per-connection set of request IDs whose caller
// cancelled while the response was still in flight. On a long-lived
// pooled connection against a peer whose handlers are stuck, the
// responses may never arrive to clear their entries, so the set evicts
// its oldest IDs once full; a late response to an evicted ID is simply
// discarded by the (tolerant) reader.
const maxAbandoned = 4096

// tcpConn is one pooled outbound connection. fw serializes frame
// writes; mu guards the request-ID counter, the pending-call table the
// reader goroutine dispatches into, and the abandoned set (requests whose
// caller's context died while the response was in flight — their late
// responses are discarded instead of being treated as protocol
// violations).
type tcpConn struct {
	c  net.Conn
	fw frameWriter

	mu            sync.Mutex
	nextID        uint64
	pending       map[uint64]chan tcpReply
	abandoned     map[uint64]struct{}
	abandonedFIFO []uint64 // eviction order for the bounded abandoned set
	dead          error    // set once the reader exits; registrations fail fast
}

// tcpReply is what the reader goroutine hands back to a waiting caller.
type tcpReply struct {
	kind    uint8
	msgType uint8
	body    []byte
	err     error // read-side failure: the call was interrupted mid-flight
}

// ListenTCP starts a TCP endpoint on addr (e.g. "127.0.0.1:0") and begins
// serving incoming requests with h.
func ListenTCP(addr string, h Handler) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	//alvislint:ctxroot endpoint lifetime root, cancelled by Close to unwind served handlers
	baseCtx, cancelBase := context.WithCancel(context.Background())
	t := &TCP{
		ln:         ln,
		addr:       Addr(ln.Addr().String()),
		handler:    h,
		meter:      metrics.NewMeter(),
		baseCtx:    baseCtx,
		cancelBase: cancelBase,
		conns:      make(map[Addr]*tcpConn),
		accepted:   make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Meter returns this endpoint's traffic meter (bytes sent and received by
// calls made and served through it).
func (t *TCP) Meter() *metrics.Meter { return t.meter }

// Addr returns the listener's address.
func (t *TCP) Addr() Addr { return t.addr }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	var handlers sync.WaitGroup
	defer func() {
		handlers.Wait()
		c.Close()
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
	}()
	r := bufio.NewReaderSize(c, frameReadBuf)
	fw := &frameWriter{w: c} // serializes response frames from concurrent handlers
	from := Addr(c.RemoteAddr().String())
	for {
		id, kind, msgType, budget, body, err := readFrame(r)
		if err != nil {
			return
		}
		if kind != kindRequest {
			return // protocol violation: drop the connection
		}
		t.meter.Record(msgType, FrameOverhead+budgetWireSize(budget)+len(body))
		handlers.Add(1)
		go func(id uint64, msgType uint8, budget uint64, body []byte) {
			defer handlers.Done()
			// The server-side request context: the caller's remaining
			// budget restarted on receipt (clock-skew-free), rooted in the
			// endpoint's lifetime.
			hctx, hcancel := handlerContext(t.baseCtx, budget)
			defer hcancel()
			respType, resp, herr := t.handler(hctx, from, msgType, body)
			if herr != nil {
				kind := uint8(kindError)
				msg := herr.Error()
				if errors.Is(herr, ErrShed) {
					kind = kindShed
					// The frame kind already carries the shed identity (the
					// client re-wraps with ErrShed); ship only the detail.
					msg = strings.TrimPrefix(msg, ErrShed.Error()+": ")
				}
				if fw.writeFrame(id, kind, msgType, 0, []byte(msg)) == nil {
					t.meter.Record(msgType, FrameOverhead+len(msg))
				}
				return
			}
			if fw.writeFrame(id, kindResponse, respType, 0, resp) == nil {
				t.meter.Record(respType, FrameOverhead+len(resp))
			}
		}(id, msgType, budget, body)
	}
}

// Call implements Endpoint. Concurrent calls to the same destination
// pipeline on one pooled connection: the request is registered in the
// connection's pending table, written under the write lock, and the
// per-connection reader delivers whichever response frame carries its ID
// — responses are free to return out of order. Cancelling ctx abandons
// the wait (ErrCallInterrupted); the connection stays healthy and a late
// response for the abandoned ID is silently discarded. A ctx deadline is
// shipped in the frame header as the request's remaining budget.
func (t *TCP) Call(ctx context.Context, to Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, cancelledBeforeSend(err)
	}
	if to == t.Addr() {
		return t.localCall(ctx, to, msgType, body)
	}
	// A pooled connection can die between pool lookup and registration;
	// the registration then fails fast and one retry dials afresh.
	for attempt := 0; ; attempt++ {
		conn, err := t.getConn(ctx, to)
		if err != nil {
			return 0, nil, err
		}
		id, ch, ok := conn.register()
		if !ok {
			t.dropConn(to, conn)
			if attempt == 0 {
				continue
			}
			return 0, nil, fmt.Errorf("%w: connection closed", ErrUnreachable)
		}
		budget := deadlineBudgetMillis(ctx)
		err = conn.fw.writeFrame(id, kindRequest, msgType, budget, body)
		if err != nil {
			// The request never left intact: unreachable, not interrupted.
			conn.unregister(id)
			t.dropConn(to, conn)
			return 0, nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		t.meter.Record(msgType, FrameOverhead+budgetWireSize(budget)+len(body))
		// From here on the request is on the wire: a failure to read the
		// response leaves it unknown whether the remote processed the
		// call, which is a different contract (ErrCallInterrupted) than a
		// request that never left (ErrUnreachable).
		select {
		case reply := <-ch:
			if reply.err != nil {
				return 0, nil, reply.err
			}
			t.meter.Record(reply.msgType, FrameOverhead+len(reply.body))
			switch reply.kind {
			case kindError:
				return 0, nil, &RemoteError{Msg: string(reply.body)}
			case kindShed:
				return 0, nil, fmt.Errorf("%w: %s", ErrShed, reply.body)
			}
			return reply.msgType, reply.body, nil
		case <-ctx.Done():
			conn.abandon(id)
			return 0, nil, interruptedInFlight(ctx.Err())
		}
	}
}

// localCall is the loopback fast path: no network round-trip, no
// metering. Its cancellation contract matches the remote path and Mem's:
// a cancellable ctx abandons the wait on a stalled handler with
// ErrCallInterrupted (the handler keeps running, exactly as a remote
// would), an uncancellable ctx dispatches inline, and a shed keeps its
// typed ErrShed identity while other handler errors surface as
// RemoteError. The handler receives the caller's own context — the
// budget needs no wire reconstruction on loopback.
func (t *TCP) localCall(ctx context.Context, to Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	return runCancellable(ctx, func() (uint8, []byte, error) {
		respType, resp, err := t.handler(ctx, to, msgType, body)
		if err != nil {
			return 0, nil, localHandlerError(err)
		}
		return respType, resp, nil
	})
}

// register allocates a request ID and its reply channel. ok is false
// when the connection's reader has already exited.
func (c *tcpConn) register() (uint64, chan tcpReply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return 0, nil, false
	}
	c.nextID++
	id := c.nextID
	ch := make(chan tcpReply, 1)
	c.pending[id] = ch
	return id, ch, true
}

// unregister abandons a request that was never written.
func (c *tcpConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// abandon marks an in-flight request as walked-away-from: its response,
// if it ever arrives, is discarded. If the reply was already delivered
// (it sits in the call's buffered channel), there is nothing to mark.
// The set is bounded at maxAbandoned entries with oldest-first eviction,
// so a stalled remote that never answers cannot grow it without bound
// over the life of the pooled connection.
func (c *tcpConn) abandon(id uint64) {
	c.mu.Lock()
	if _, still := c.pending[id]; still {
		delete(c.pending, id)
		if c.abandoned == nil {
			c.abandoned = make(map[uint64]struct{}, maxAbandoned)
		}
		// Prune queue heads whose entry the reader already consumed (the
		// late response did arrive): without this the queue would grow by
		// one entry per abandon-then-late-response cycle while the map
		// stays small — the same slow leak in a different container.
		for len(c.abandonedFIFO) > 0 {
			if _, live := c.abandoned[c.abandonedFIFO[0]]; live {
				break
			}
			c.abandonedFIFO = c.abandonedFIFO[1:]
		}
		for len(c.abandoned) >= maxAbandoned && len(c.abandonedFIFO) > 0 {
			oldest := c.abandonedFIFO[0]
			c.abandonedFIFO = c.abandonedFIFO[1:]
			delete(c.abandoned, oldest)
		}
		c.abandoned[id] = struct{}{}
		c.abandonedFIFO = append(c.abandonedFIFO, id)
		if len(c.abandonedFIFO) >= 2*maxAbandoned {
			// Consumed entries buried behind a still-live head can defeat
			// the head pruning; compact by rebuilding from the live set,
			// which hard-bounds the queue at 2×maxAbandoned entries.
			live := c.abandonedFIFO[:0]
			for _, old := range c.abandonedFIFO {
				if _, ok := c.abandoned[old]; ok {
					live = append(live, old)
				}
			}
			c.abandonedFIFO = live
		}
	}
	c.mu.Unlock()
}

// abandonedLen reports the current abandoned-set size (tests assert the
// bound).
func (c *tcpConn) abandonedLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.abandoned)
}

// readLoop is the per-connection response dispatcher: it matches every
// inbound frame to its pending call by request ID and, when the
// connection dies, fails every in-flight call with ErrCallInterrupted
// (the remote may or may not have processed them). Responses whose
// caller abandoned the wait (context cancellation) are discarded without
// disturbing the connection — and because the abandoned set is bounded,
// an unmatched response ID is no longer proof of a protocol violation
// (it may belong to an evicted entry, or to a request the server shed
// while the caller was simultaneously abandoning it), so unmatched
// responses are dropped and the connection and its pipelined in-flight
// calls stay alive. Teardown is reserved for true protocol violations:
// unreadable frames and frame kinds a client must never receive.
func (t *TCP) readLoop(to Addr, conn *tcpConn) {
	defer t.wg.Done()
	r := bufio.NewReaderSize(conn.c, frameReadBuf)
	for {
		id, kind, msgType, _, body, err := readFrame(r)
		if err != nil {
			t.failConn(to, conn, err)
			return
		}
		if kind != kindResponse && kind != kindError && kind != kindShed {
			// A request (or unknown kind) arriving on a client connection
			// is a real protocol violation: drop the connection.
			t.failConn(to, conn, fmt.Errorf("transport: unexpected frame kind %d", kind))
			return
		}
		conn.mu.Lock()
		ch, ok := conn.pending[id]
		delete(conn.pending, id)
		if !ok {
			delete(conn.abandoned, id)
		}
		conn.mu.Unlock()
		if !ok {
			continue // late response to a cancelled (possibly evicted) call
		}
		ch <- tcpReply{kind: kind, msgType: msgType, body: body}
	}
}

// failConn tears a connection down and interrupts every pending call.
func (t *TCP) failConn(to Addr, conn *tcpConn, cause error) {
	t.dropConn(to, conn)
	conn.mu.Lock()
	conn.dead = cause
	pending := conn.pending
	conn.pending = nil
	conn.mu.Unlock()
	for _, ch := range pending {
		ch <- tcpReply{err: fmt.Errorf("%w: %v", ErrCallInterrupted, cause)}
	}
}

func (t *TCP) getConn(ctx context.Context, to Addr) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	// Dial outside the lock; racing dials are reconciled below. The
	// context bounds the dial itself: a dead or blackholed bootstrap
	// address fails at the caller's deadline, not the OS default TCP
	// timeout.
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		nc.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		nc.Close()
		return existing, nil
	}
	c := newTCPConn(nc)
	t.conns[to] = c
	t.wg.Add(1)
	go t.readLoop(to, c)
	return c, nil
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{c: nc, fw: frameWriter{w: nc}, pending: make(map[uint64]chan tcpReply)}
}

func (t *TCP) dropConn(to Addr, conn *tcpConn) {
	conn.c.Close()
	t.mu.Lock()
	if t.conns[to] == conn {
		delete(t.conns, to)
	}
	t.mu.Unlock()
}

// Close shuts down the listener and all cached connections and waits for
// server goroutines to exit. In-flight handler contexts are cancelled so
// stuck handlers unwind.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[Addr]*tcpConn)
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()

	t.cancelBase()
	err := t.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	// Closing inbound connections unblocks their server goroutines, so
	// the WaitGroup below cannot hang on an idle reader.
	for _, c := range accepted {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// frameWriter serializes whole frames onto one connection. Each frame is
// assembled in buf and handed over in a single Write: one system call per
// frame, and frames from concurrent writers never interleave. The buffer
// is reused frame after frame under mu; the connection does not retain
// it past Write.
type frameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// writeFrame writes one frame. budgetMs > 0 sets flagDeadline and
// prefixes the payload with the budget varint; 0 produces a frame
// byte-identical to the pre-budget format.
func (fw *frameWriter) writeFrame(id uint64, kind, msgType uint8, budgetMs uint64, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", len(payload))
	}
	if budgetMs > 0 {
		kind |= flagDeadline
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	buf := binary.BigEndian.AppendUint32(fw.buf[:0], 0) // the length, set below
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = append(buf, kind, msgType)
	if budgetMs > 0 {
		buf = wire.AppendDeadlineBudget(buf, budgetMs)
	}
	buf = append(buf, payload...)
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	if cap(buf) <= maxKeptFrameBuf {
		fw.buf = buf
	}
	_, err := fw.w.Write(buf)
	return err
}

// readFrame reads one frame from r, which is the connection's buffered
// reader. The payload is always a fresh allocation, never a view of the
// reader's buffer: handlers and callers keep it on their own goroutines
// while the reader moves on to the next frame.
func readFrame(r *bufio.Reader) (id uint64, kind, msgType uint8, budgetMs uint64, payload []byte, err error) {
	lenBuf, err := r.Peek(4)
	if err != nil {
		return
	}
	n := binary.BigEndian.Uint32(lenBuf)
	if _, err = r.Discard(4); err != nil {
		return
	}
	if n < 10 || n > maxFrame+20 {
		err = fmt.Errorf("transport: bad frame length %d", n)
		return
	}
	rest := make([]byte, n)
	if _, err = io.ReadFull(r, rest); err != nil {
		return
	}
	id = binary.BigEndian.Uint64(rest[0:8])
	rawKind := rest[8]
	kind = rawKind & kindMask
	msgType = rest[9]
	payload = rest[10:]
	if rawKind&flagDeadline != 0 {
		budgetMs, payload, err = wire.ConsumeDeadlineBudget(payload)
		if err != nil {
			err = fmt.Errorf("transport: bad deadline budget: %w", err)
			return
		}
	}
	return
}
