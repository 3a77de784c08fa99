package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/media"
)

// ErrBusy reports a per-connection backpressure rejection: the server
// already had its maximum number of requests in flight on the connection
// and refused to queue more. Matched with errors.Is; retry after other
// requests complete, or raise the pool size.
var ErrBusy = errors.New("transport: server busy")

// clientMux multiplexes pipelined requests over one connection: a
// writer goroutine serializes frame writes (coalescing bursts through a
// buffered writer), a reader goroutine demultiplexes response frames to
// per-request channels by request ID, and per-request contexts cancel
// individual calls without poisoning the connection — an abandoned
// request's late frames are simply dropped by the reader.
type clientMux struct {
	conn net.Conn

	// writeCh feeds the writer goroutine; sem bounds the requests in
	// flight to what the server advertised at hello, so well-behaved
	// clients queue locally instead of triggering opErrBusy.
	writeCh chan frameV2
	sem     chan struct{}

	// sent/recvd/chunks point into the owning Client's traffic counters.
	sent, recvd, chunks *atomic.Int64

	// compress enables the opCompressed request envelope (negotiated at
	// the hello against a codec-capable server); onCompress observes each
	// request frame that actually shipped deflated. Both are fixed before
	// the writer goroutine starts.
	compress   bool
	onCompress func(raw, wire int64)

	mu      sync.Mutex
	pending map[uint32]*muxCall
	nextID  uint32
	err     error // terminal connection error, set once before closing dead

	dead      chan struct{} // closed when either goroutine dies
	deadOnce  sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// muxCall is one in-flight request's delivery state.
type muxCall struct {
	ch   chan frameV2  // response frames for this request ID
	gone chan struct{} // closed when the caller abandons the call
	// detached marks a call that released its in-flight slot early (a
	// long-lived subscription); finish must not release it again.
	// Guarded by the mux mutex.
	detached bool
}

// newClientMux starts the writer and reader goroutines over conn.
// maxInFlight is the server-advertised per-connection bound; compress
// enables the request-side opCompressed envelope and onCompress (may be
// nil) observes frames that actually shipped deflated.
func newClientMux(conn net.Conn, maxInFlight int, sent, recvd, chunks *atomic.Int64, compress bool, onCompress func(raw, wire int64)) *clientMux {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	m := &clientMux{
		conn:       conn,
		writeCh:    make(chan frameV2, maxInFlight),
		sem:        make(chan struct{}, maxInFlight),
		sent:       sent,
		recvd:      recvd,
		chunks:     chunks,
		compress:   compress,
		onCompress: onCompress,
		pending:    make(map[uint32]*muxCall),
		dead:       make(chan struct{}),
	}
	m.wg.Add(2)
	go m.writeLoop()
	go m.readLoop()
	return m
}

// fail records the terminal error and wakes everything waiting on the
// connection. The first error wins.
func (m *clientMux) fail(err error) {
	m.deadOnce.Do(func() {
		m.mu.Lock()
		m.err = fmt.Errorf("transport: mux connection failed: %w", err)
		m.mu.Unlock()
		close(m.dead)
		_ = m.conn.Close()
	})
}

// deadErr returns the terminal error once the mux is dead.
func (m *clientMux) deadErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		return fmt.Errorf("transport: mux connection closed")
	}
	return m.err
}

// close shuts the mux down: a goodbye frame on a healthy connection, then
// the socket closes and both goroutines exit.
func (m *clientMux) close() error {
	m.closeOnce.Do(func() {
		select {
		case <-m.dead:
		default:
			// Best-effort goodbye straight on the conn: the writer may be
			// blocked, and interleaving with a concurrent request merely
			// ends a connection that is closing anyway.
			_ = writeFrameV2(m.conn, opGoodbye, 0)
		}
		m.fail(errors.New("client closed"))
	})
	m.wg.Wait()
	return nil
}

// writeLoop serializes request frames onto the connection through a
// frameSender (compression and vectored writes per the negotiated
// policy), flushing the buffered writer only when the queue stays
// drained across a scheduler yield — a burst of pipelined requests (or
// of requesters woken by a batch of responses) coalesces into few
// syscalls instead of one per frame.
func (m *clientMux) writeLoop() {
	defer m.wg.Done()
	sender := newFrameSender(m.conn)
	sender.compress = m.compress
	sender.onCompress = m.onCompress
	for {
		var f frameV2
		select {
		case f = <-m.writeCh:
		case <-m.dead:
			return
		default:
			// Give requesters one scheduling slot to enqueue before
			// paying the flush syscall.
			runtime.Gosched()
			select {
			case f = <-m.writeCh:
			case <-m.dead:
				return
			default:
				if err := sender.flush(); err != nil {
					m.fail(err)
					return
				}
				select {
				case f = <-m.writeCh:
				case <-m.dead:
					return
				}
			}
		}
		n, err := sender.send(f)
		if err != nil {
			m.fail(err)
			return
		}
		m.sent.Add(n)
	}
}

// countReader counts the bytes actually read off a connection, so the
// received-traffic counter reflects on-wire sizes — a compressed
// response frame counts its envelope, not its inflated body.
type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// readLoop demultiplexes response frames to the pending calls. A frame
// whose request ID is unknown — a server bug, or the tail of an
// abandoned call — is dropped; the connection itself stays healthy.
func (m *clientMux) readLoop() {
	defer m.wg.Done()
	br := bufio.NewReaderSize(&countReader{r: m.conn, n: m.recvd}, muxBufSize)
	for {
		f, err := readFrameV2(br)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		call := m.pending[f.id]
		m.mu.Unlock()
		if call == nil {
			continue
		}
		select {
		case call.ch <- f:
		case <-call.gone:
		case <-m.dead:
			return
		}
	}
}

// begin registers a new call and enqueues its request frame, honouring
// ctx and the in-flight bound. The caller must end the call with
// m.finish(id, call) exactly once.
func (m *clientMux) begin(ctx context.Context, op byte, parts [][]byte) (uint32, *muxCall, error) {
	// Buffered past the deepest healthy sequence (header + chunks +
	// end arrive one at a time, consumed in lockstep); the reader
	// only parks here when a response races the call's abandonment.
	return m.beginBuf(ctx, op, parts, 4)
}

// beginBuf is begin with a caller-chosen response buffer: long-lived
// subscription calls want a deeper channel so the reader never parks on
// a consumer that is between Recv calls.
func (m *clientMux) beginBuf(ctx context.Context, op byte, parts [][]byte, bufCap int) (uint32, *muxCall, error) {
	select {
	case m.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-m.dead:
		return 0, nil, m.deadErr()
	}
	call := &muxCall{
		ch:   make(chan frameV2, bufCap),
		gone: make(chan struct{}),
	}
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.pending[id] = call
	m.mu.Unlock()
	select {
	case m.writeCh <- frameV2{op: op, id: id, parts: parts}:
		return id, call, nil
	case <-ctx.Done():
		m.finish(id, call)
		return 0, nil, ctx.Err()
	case <-m.dead:
		m.finish(id, call)
		return 0, nil, m.deadErr()
	}
}

// finish deregisters a call and releases its in-flight slot. Late frames
// for the ID are dropped by the reader from here on.
func (m *clientMux) finish(id uint32, call *muxCall) {
	m.mu.Lock()
	delete(m.pending, id)
	detached := call.detached
	m.mu.Unlock()
	close(call.gone)
	if !detached {
		<-m.sem
	}
}

// detach releases the call's in-flight slot while keeping the call
// registered. A subscription occupies its request ID for the whole watch
// but must not hold a pipeline slot hostage — after its snapshot arrives
// the server pushes frames unprompted, paying admission per push, so the
// client-side slot would only starve ordinary requests. The caller still
// ends the call with finish exactly once.
func (m *clientMux) detach(call *muxCall) {
	m.mu.Lock()
	call.detached = true
	m.mu.Unlock()
	<-m.sem
}

// abandon gives up on a call whose request already reached the wire —
// a cancelled context, most likely — WITHOUT releasing its in-flight
// slot yet: the server is still working on the request, so releasing
// immediately would let the client over-fill the pipeline and draw
// spurious opErrBusy rejections. A drainer goroutine consumes the
// call's frames until the server's terminal response (or connection
// death) and releases the slot then, keeping the two sides' in-flight
// accounting in step.
func (m *clientMux) abandon(id uint32, call *muxCall) {
	go func() {
		for {
			select {
			case f := <-call.ch:
				switch f.op {
				case opStreamHdr, opStreamChunk:
					// Mid-stream frames; the terminal one follows.
				default:
					m.finish(id, call)
					return
				}
			case <-m.dead:
				m.finish(id, call)
				return
			}
		}
	}()
}

// recv waits for the call's next response frame. A frame that landed
// before the connection died is still the answer, so death, which select
// may pick first, is reported only once the call's channel is drained.
func (m *clientMux) recv(ctx context.Context, call *muxCall) (frameV2, error) {
	select {
	case f := <-call.ch:
		return f, nil
	case <-ctx.Done():
		return frameV2{}, ctx.Err()
	case <-m.dead:
		select {
		case f := <-call.ch:
			return f, nil
		default:
			return frameV2{}, m.deadErr()
		}
	}
}

// roundTrip performs one single-response exchange over the mux, tracking
// sizes. The context's deadline (or, absent one, c.Timeout) bounds the
// exchange. Cancellation abandons only this request: the connection and
// every other in-flight call on it stay healthy.
func (c *Client) roundTrip(ctx context.Context, op byte, parts ...[]byte) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	m := c.mux
	id, call, err := m.begin(ctx, op, parts)
	if err != nil {
		return nil, err
	}
	c.roundTrips.Add(1)
	f, err := m.recv(ctx, call)
	if err != nil {
		m.abandon(id, call)
		return nil, err
	}
	m.finish(id, call)
	return muxResponse(f)
}

// muxResponse maps a terminal response frame to parts or a typed error.
func muxResponse(f frameV2) ([][]byte, error) {
	switch f.op {
	case opOK:
		return f.parts, nil
	case opErrNotFound:
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, ErrNotFound, errText(f.parts))
	case opErrBusy:
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, ErrBusy, errText(f.parts))
	case opErr:
		return nil, fmt.Errorf("%w: %s", ErrRemote, errText(f.parts))
	default:
		return nil, fmt.Errorf("transport: unexpected response op %d", f.op)
	}
}

// getBlockStream fetches one block as a chunked stream — the only way a
// block past the single-frame limit travels — reassembling the sequenced
// chunk frames and verifying size, order and chunk count.
func (c *Client) getBlockStream(ctx context.Context, name string) (*media.Block, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	m := c.mux
	id, call, err := m.begin(ctx, opGetBlkStream, [][]byte{[]byte(name)})
	if err != nil {
		return nil, err
	}
	c.roundTrips.Add(1)
	var asm chunkAssembler
	for {
		f, err := m.recv(ctx, call)
		if err != nil {
			m.abandon(id, call)
			return nil, err
		}
		switch f.op {
		case opStreamHdr:
			if err := asm.begin(f.parts); err != nil {
				m.abandon(id, call)
				return nil, err
			}
		case opStreamChunk:
			if err := asm.chunk(f.parts); err != nil {
				m.abandon(id, call)
				return nil, err
			}
			c.streamChunks.Add(1)
		case opStreamEnd:
			blk, err := asm.finish(f.parts)
			m.finish(id, call)
			return blk, err
		default:
			m.finish(id, call)
			_, err := muxResponse(f)
			if err == nil {
				err = fmt.Errorf("transport: unexpected op %d inside stream", f.op)
			}
			return nil, err
		}
	}
}
