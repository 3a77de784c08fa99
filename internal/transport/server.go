package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
)

// Registry holds the documents and blocks a server offers. Safe for
// concurrent use.
type Registry struct {
	mu    sync.RWMutex
	docs  map[string]*core.Document
	Store *media.Store

	// Journal, when non-nil, journals document mutations. Set before serving.
	Journal Journal
	// DurabilityErr, when non-nil, reports whether the durability layer
	// has failed; mutating ops are refused once it returns non-nil, so
	// the server never acknowledges a write it could not persist. Set
	// before serving.
	DurabilityErr func() error

	// live is the live-document fan-out hub: per-document generations and
	// subscriber queues, guarded by mu (see live.go).
	live liveState
}

// Journal records document mutations (*durable.Log implements it). The
// registry calls it under its lock with the registered document itself,
// which is never mutated — an edit registers a new one — so the journal
// may keep the pointer. A failed EditDoc rejects its batch; a failed
// PutDoc must be sticky and reported by DurabilityErr.
type Journal interface {
	// PutDoc records a wholesale registration.
	PutDoc(name string, d *core.Document) error
	// EditDoc records an accepted edit batch: d is the document it
	// produced, and recs the batch in core.EncodeChangeRecords form.
	EditDoc(name string, d *core.Document, recs []byte) error
}

// NewRegistry returns an empty registry backed by store (a fresh store when
// nil).
func NewRegistry(store *media.Store) *Registry {
	if store == nil {
		store = media.NewStore()
	}
	return &Registry{docs: make(map[string]*core.Document), Store: store}
}

// PutDoc registers a document under name.
func (r *Registry) PutDoc(name string, d *core.Document) {
	clone := d.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.docs[name] = clone
	// The journal runs under the lock so racing registrations of one name
	// journal in the order they landed in the map — recovery replays the
	// same winner the pre-crash server served. (Readers of the registry
	// wait out the journal append, fsync included under SyncAlways.) A
	// failure is sticky in the journal and surfaces through durability().
	if r.Journal != nil {
		_ = r.Journal.PutDoc(name, clone)
	}
	r.notePutDocLocked(name, clone)
}

// GetDoc fetches a clone of the document registered under name.
func (r *Registry) GetDoc(name string) (*core.Document, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.docs[name]
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}

// DocNames returns registered document names, sorted.
func (r *Registry) DocNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.docs))
	for n := range r.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Encoding selects the document wire encoding.
type Encoding byte

const (
	// EncodingText is the human-readable form.
	EncodingText Encoding = 't'
	// EncodingBinary is the compact TLV form.
	EncodingBinary Encoding = 'b'
)

// GetDocOptions shapes a document fetch.
type GetDocOptions struct {
	Encoding Encoding
	// Inline ships payloads inside the tree (no common storage server).
	Inline bool
}

// ServeConfig is the serving knob set every tier shares: an origin, an
// edge and a cluster node each carry one, so a knob has one field
// whichever tier it tunes.
type ServeConfig struct {
	// IdleTimeout bounds how long a connection may sit without delivering
	// any data — between requests, or stalled mid-request — before the
	// server hangs up; every received chunk re-arms it, so a slow but
	// progressing upload is not cut off. Zero means forever.
	IdleTimeout time.Duration
	// MaxInFlight bounds how many requests one connection may have in
	// flight; requests past the bound are rejected with opErrBusy. The
	// bound is advertised to the client at hello. Zero means
	// defaultMaxInFlight.
	MaxInFlight int
	// Compression enables per-frame flate compression: the hello
	// response advertises the codec, and response frames past the codec
	// floor ship deflated unless they prove incompressible. Decoding
	// compressed frames is always on regardless of this flag.
	Compression bool
	// Admission configures server-wide admission control: a concurrency
	// bound across all connections with a bounded, deadline-aware queue.
	// Requests past the bounds are shed with opErrBusy instead of
	// degrading every request's latency. The zero value disables it.
	Admission Admission
	// SubQueueCap bounds each live-document subscriber's event queue: a
	// watcher whose queue overflows is shed with a changeEnd frame
	// instead of buffering without bound. Zero means defaultSubQueue.
	SubQueueCap int
	// Metrics, when non-nil, receives the server's instruments: request
	// counts, per-op latency, in-flight and queue gauges, busy
	// rejections, descriptor-cache effectiveness, frame compression and
	// the chunk index's dedupe savings.
	Metrics *metrics.Registry
}

// Server serves a Backend over TCP: framing, the hello, admission,
// metrics and drain live here, and an op table (ops.go) turns each
// request into Backend calls — the server does not know where an answer
// comes from. Every connection opens with a hello and then speaks the
// multiplexed protocol (pipelined requests, chunked block streaming,
// subscriptions, compression); a peer that cannot is refused.
type Server struct {
	backend Backend
	// peers is the backend's node-to-node half, nil unless it is a
	// cluster node. Resolved once by NewServer.
	peers PeerOps

	// ServeConfig holds the serving knobs. Set before Listen.
	ServeConfig
	// metrics is the instrument set Listen builds from
	// ServeConfig.Metrics; nil leaves the server uninstrumented.
	metrics *serverMetrics
	// testOpDelay, when non-nil, stalls request handling — a test hook
	// for exercising backpressure deterministically.
	testOpDelay func(op byte)

	// descCache memoizes wire-encoded block descriptors by content
	// address (block ID → descriptor text), bounded by descCacheCap; it
	// saves re-encoding the descriptor on every fetch of a hot block.
	descMu    sync.RWMutex
	descCache map[string]string

	// adm enforces Admission; nil admits everything. Built at Listen.
	adm *admitter

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewServer returns a server answering from b — a *Registry for an
// origin, or a tier that wraps one.
func NewServer(b Backend) *Server {
	peers, _ := b.(PeerOps)
	return &Server{
		backend:   b,
		peers:     peers,
		descCache: make(map[string]string),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting on addr ("127.0.0.1:0" for tests) and returns the
// bound address. Serving happens on background goroutines until Close or
// Shutdown.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	if s.adm == nil {
		s.instrument()
		s.adm = newAdmitter(s.Admission, s.metrics)
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

// storeBacked is a backend whose chunk index lives in a media store: the
// Registry, and every tier that embeds one.
type storeBacked interface{ chunkStore() *media.Store }

func (r *Registry) chunkStore() *media.Store { return r.Store }

// instrument builds the server's instruments from the Metrics registry —
// the one place any tier's server metrics are made — and feeds the
// backend's chunk index savings into them before traffic arrives.
func (s *Server) instrument() {
	if s.Metrics == nil {
		return
	}
	s.metrics = newServerMetrics(s.Metrics)
	if b, ok := s.backend.(storeBacked); ok {
		b.chunkStore().SetDedupeObserver(s.metrics.dedupeSaved)
	}
}

// Close force-closes the listener and every open connection, then waits for
// the serving goroutines. For a shutdown that lets in-flight requests
// finish, use Shutdown.
func (s *Server) Close() error {
	err := s.beginShutdown(true)
	s.wg.Wait()
	return err
}

// Shutdown stops accepting, lets every in-flight request complete (closing
// each connection once its current request is answered), and returns. If
// ctx expires first, remaining connections are force-closed and ctx's error
// is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.beginShutdown(false)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.closeConns()
		<-done
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

// beginShutdown closes the listener, marks the server draining and (when
// force is set) closes every open connection.
func (s *Server) beginShutdown(force bool) error {
	s.mu.Lock()
	l := s.listener
	s.listener = nil
	s.draining = true
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	if force {
		s.closeConns()
	} else {
		// Expire pending reads so idle connections notice the drain;
		// connections mid-request still complete their response write.
		s.mu.Lock()
		for c := range s.conns {
			_ = c.SetReadDeadline(time.Unix(1, 0))
		}
		s.mu.Unlock()
	}
	return err
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

// track registers conn; it reports false when the server is already
// draining and the connection should be refused.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// armIdle sets the idle read deadline for the next request, unless the
// server is draining. Holding s.mu serializes this against beginShutdown's
// deadline poisoning: either the drain is visible here (return false), or
// the freshly armed deadline is poisoned after us.
func (s *Server) armIdle(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
	}
	return true
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.metrics.connOpened()
			defer s.metrics.connClosed()
			s.serveConn(conn)
		}()
	}
}

// idleReader re-arms the connection's idle deadline on every received
// chunk, so IdleTimeout measures stalls rather than total request size.
// While draining, armIdle declines to re-arm and the poisoned deadline
// ends the read.
type idleReader struct {
	s    *Server
	conn net.Conn
}

func (r *idleReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.s.armIdle(r.conn)
	}
	return n, err
}

// maxInFlight resolves the per-connection pipelining bound.
func (s *Server) maxInFlight() int {
	if s.MaxInFlight > 0 {
		return s.MaxInFlight
	}
	return defaultMaxInFlight
}

// retiredRefusal is the refusal a peer gets when it cannot speak
// protoVersion: no hello, or a hello offering less than v4.
const retiredRefusal = "protocols v1–v3 are retired; this server speaks v4"

// serveConn handles one client until EOF, goodbye, timeout or drain. The
// first frame must be a hello, v1-framed as it has been since protocol
// v2 introduced it; a hello offering protoVersion or newer is answered
// with protoVersion and the connection switches to the multiplexed loop.
// Anything else is refused with one v1-framed opErr — the only frame a
// v1 peer can read — and a close. A draining server answers the
// requests in flight, then hangs up.
func (s *Server) serveConn(conn net.Conn) {
	// The read side is buffered over the idle-rearming reader: pipelined
	// clients deliver bursts of frames per syscall, and the idle deadline
	// still re-arms on every chunk the kernel delivers.
	in := bufio.NewReaderSize(&idleReader{s: s, conn: conn}, muxBufSize)
	if !s.armIdle(conn) {
		return
	}
	req, err := readFrame(in)
	if err != nil || req.op == opGoodbye {
		return
	}
	// The hello answer, either way, is the one v1-framed write.
	refuse := func(text string) { _ = writeFrame(conn, opErr, []byte(text)) }
	if req.op != opHello {
		refuse(retiredRefusal)
		return
	}
	if len(req.parts) != 1 || len(req.parts[0]) != 1 {
		refuse("hello: want [maxVersion]")
		return
	}
	if req.parts[0][0] < protoVersion {
		refuse(retiredRefusal)
		return
	}
	ad := make([]byte, 2)
	binary.BigEndian.PutUint16(ad, uint16(s.maxInFlight()))
	frameCodec := codec.FrameCodecNone
	if s.Compression {
		frameCodec = codec.FrameCodecFlate
	}
	if err := writeFrame(conn, opOK, []byte{protoVersion}, ad, []byte{frameCodec}); err != nil {
		return
	}
	s.serveConnV2(conn, in)
}

// v2conn is one multiplexed connection's shared state: the response
// channel its writer drains, the done channel that stops long-lived
// subscription pumps when the read loop exits, the WaitGroup covering
// handlers and pumps alike, and the per-connection subscription table
// (request ID → subscriber) that opUnsubscribe resolves against.
type v2conn struct {
	respCh chan frameV2
	done   chan struct{}
	wg     sync.WaitGroup

	mu   sync.Mutex
	subs map[uint32]*Subscriber
}

// addSub records a live subscription under its opSubscribe request ID.
func (cc *v2conn) addSub(id uint32, sub *Subscriber) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.subs == nil {
		cc.subs = make(map[uint32]*Subscriber)
	}
	cc.subs[id] = sub
}

// takeSub resolves and forgets a subscription by request ID (an exiting
// pump forgets its own this way).
func (cc *v2conn) takeSub(id uint32) *Subscriber {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	sub := cc.subs[id]
	delete(cc.subs, id)
	return sub
}

// serveConnV2 is the multiplexed loop: the connection goroutine reads
// request frames and dispatches each to its own handler goroutine,
// bounded by the per-connection in-flight limit — requests past the
// bound are rejected immediately with opErrBusy. A writer goroutine
// serializes response frames (coalescing bursts through a buffered
// writer), so responses
// complete out of order and a large streamed block interleaves with
// other responses instead of blocking them. On drain the reader stops,
// subscription pumps are told to wind down, in-flight handlers finish,
// and their responses are flushed before the connection closes.
func (s *Server) serveConnV2(conn net.Conn, in *bufio.Reader) {
	maxIF := s.maxInFlight()
	respCh := make(chan frameV2, maxIF+2)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sender := newFrameSender(conn)
		// The hello advertised the codec; the codec seam itself decides
		// per frame (size floor, incompressible bypass).
		sender.compress = s.Compression
		sender.onCompress = s.metrics.frameCompressed
		failed := false
		flush := func() {
			if failed {
				return
			}
			if err := sender.flush(); err != nil {
				// The connection is gone: keep
				// draining respCh so handlers never block, and kill the
				// read side so the connection goroutine unwinds.
				failed = true
				_ = conn.Close()
			}
		}
		for {
			var f frameV2
			var ok bool
			select {
			case f, ok = <-respCh:
			default:
				// Give handlers one scheduling slot to emit more
				// responses before paying the flush syscall.
				runtime.Gosched()
				select {
				case f, ok = <-respCh:
				default:
					flush()
					f, ok = <-respCh
				}
			}
			if !ok {
				flush()
				return
			}
			if failed {
				if f.done != nil {
					f.done()
				}
				continue
			}
			_, err := sender.send(f.op, f.id, f.parts)
			if f.done != nil {
				// The frame is in the write buffer (or the buffer's own
				// flush blocked until the socket drained): release the
				// admission slot only now, so clients that cannot absorb
				// responses keep the server's capacity visibly occupied.
				f.done()
			}
			if err != nil {
				failed = true
				_ = conn.Close()
			}
		}
	}()

	cc := &v2conn{respCh: respCh, done: make(chan struct{})}
	sem := make(chan struct{}, maxIF)
	for s.armIdle(conn) {
		req, err := readFrameV2(in)
		if err != nil {
			break
		}
		if req.op == opGoodbye {
			break
		}
		if !admit(sem) {
			s.metrics.countRequest(req.op)
			s.metrics.shed(shedConnInflight)
			respCh <- frameV2{op: opErrBusy, id: req.id,
				parts: [][]byte{[]byte(fmt.Sprintf("busy: %d requests in flight", maxIF))}}
			continue
		}
		cc.wg.Add(1)
		go func(req frameV2) {
			defer cc.wg.Done()
			defer func() { <-sem }()
			s.handleV2(cc, req)
		}(req)
	}
	// Stop subscription pumps first: they run for the subscription's
	// lifetime, not a request's, and would otherwise hold the WaitGroup
	// open forever. The writer keeps draining respCh until it closes, so
	// a pump blocked mid-send always completes.
	close(cc.done)
	cc.wg.Wait()
	close(respCh)
	<-writerDone
}

// admit claims one in-flight slot without blocking the read loop. When
// the pool looks full it yields once and retries: a handler that has
// already enqueued its response but was preempted before releasing its
// slot gets the scheduling slot it needs, so a client pipelining right
// at the advertised bound is not spuriously rejected by that tiny
// window. A genuinely saturated connection still rejects immediately
// after the one yield.
func admit(sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	runtime.Gosched()
	select {
	case sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// handleV2 executes one multiplexed request — first through server-wide
// admission control, then the dispatcher — emitting its response frame(s)
// (several for a streamed block) in order onto respCh. Admission waiting
// happens here, on the handler goroutine, so a saturated server never
// stalls the connection's read loop: later frames still reach their own
// handlers (or their own fast busy rejections).
func (s *Server) handleV2(cc *v2conn, req frameV2) {
	respCh := cc.respCh
	s.metrics.countRequest(req.op)
	start := time.Now()
	release, shed := s.adm.acquire()
	if shed != "" {
		respCh <- frameV2{op: opErrBusy, id: req.id, parts: [][]byte{busyText(shed)}}
		return
	}
	s.metrics.inflightAdd(1)
	defer s.metrics.inflightAdd(-1)
	defer s.metrics.observe(req.op, start)
	if s.testOpDelay != nil {
		s.testOpDelay(req.op)
	}
	var op byte
	var parts [][]byte
	switch req.op {
	case opGetBlkStream:
		// The stream handler blocks on respCh while it emits chunks, so
		// the slot already covers the write side; release on return.
		defer release()
		s.handleStream(req, respCh)
		return
	case opSubscribe:
		// The subscription pump inherits the slot: it releases with the
		// snapshot frame's write, then runs slot-free for the
		// subscription's lifetime.
		s.handleSubscribe(cc, req, release)
		return
	case opUnsubscribe:
		op, parts = cc.unsubscribe(req.parts)
	default:
		op, parts = s.handle(frame{op: req.op, parts: req.parts})
	}
	// The slot travels with the response frame and is released by the
	// writer once the frame is actually written: a request occupies
	// admission capacity for its whole lifetime, not just its compute,
	// so overload driven by response backpressure still sheds.
	respCh <- frameV2{op: op, id: req.id, parts: parts, done: release}
}

// handleSubscribe answers opSubscribe: it registers a watcher on the
// document (whose queue the backend seeds with the current snapshot,
// atomically with the registration) and starts the pump goroutine that
// drains the queue onto the connection for the subscription's lifetime.
// The admission slot rides the first pushed frame, exactly like a plain
// response.
func (s *Server) handleSubscribe(cc *v2conn, req frameV2, release func()) {
	refuse := func(op byte, text []byte) {
		cc.respCh <- frameV2{op: op, id: req.id, parts: [][]byte{text}, done: release}
	}
	if len(req.parts) != 1 && len(req.parts) != 2 {
		refuse(opErr, []byte("subscribe: want [name] or [name, subtree]"))
		return
	}
	name := string(req.parts[0])
	subtree := ""
	if len(req.parts) == 2 {
		subtree = string(req.parts[1])
	}
	sub, err := s.backend.Subscribe(name, subtree, s.SubQueueCap, s.Admission.MaxSubscribers)
	switch {
	case errors.Is(err, ErrNotFound):
		refuse(opErrNotFound, []byte(err.Error()))
		return
	case errors.Is(err, errSubsFull):
		s.metrics.shed(shedSubsFull)
		refuse(opErrBusy, busyText(shedSubsFull))
		return
	case err != nil:
		refuse(opErr, []byte(err.Error()))
		return
	}
	cc.addSub(req.id, sub)
	s.metrics.subscriberAdd(1)
	cc.wg.Add(1)
	go s.pumpSub(cc, req.id, sub, release)
}

// pumpSub forwards one subscriber's events onto the connection until the
// subscription ends (unsubscribe, shed, registry replacement failure) or
// the connection winds down. It owns the subscriber's hub
// registration and the active-subscriber gauge: whatever the exit path,
// both are released — the leak test pins this.
func (s *Server) pumpSub(cc *v2conn, id uint32, sub *Subscriber, release func()) {
	defer cc.wg.Done()
	defer s.metrics.subscriberAdd(-1)
	defer sub.unsubscribe()
	defer cc.takeSub(id)
	send := func(f frameV2) bool {
		select {
		case cc.respCh <- f:
			return true
		case <-cc.done:
			if f.done != nil {
				f.done()
			}
			return false
		}
	}
	for {
		select {
		case ev := <-sub.q:
			f := frameV2{op: opChange, id: id, parts: ev.parts(), done: release}
			release = nil
			if ev.kind == changeDelta {
				s.metrics.deltaPushed(time.Since(ev.at))
			}
			if !send(f) {
				return
			}
		case <-sub.stop:
			if sub.reason == shedSubSlow {
				s.metrics.shed(shedSubSlow)
			}
			send(frameV2{op: opChange, id: id, parts: endParts(sub.reason), done: release})
			return
		case <-cc.done:
			if release != nil {
				release()
			}
			return
		}
	}
}

// unsubscribe answers opUnsubscribe: it ends the named subscription —
// the pump emits the terminal changeEnd frame — and acknowledges.
// Unsubscribing an unknown or already-ended subscription is not an
// error: the shed path races client-requested ends by design.
func (cc *v2conn) unsubscribe(parts [][]byte) (byte, [][]byte) {
	if len(parts) != 1 || len(parts[0]) != 4 {
		return fail("unsubscribe: want [subID(u32)]")
	}
	if sub := cc.takeSub(binary.BigEndian.Uint32(parts[0])); sub != nil {
		sub.end(endReasonUnsubscribed)
	}
	return opOK, nil
}

// handleStream answers opGetBlkStream: a header frame, the payload cut
// into sequenced chunks, and an end frame carrying the chunk count.
func (s *Server) handleStream(req frameV2, respCh chan<- frameV2) {
	reply := func(op byte, parts ...[]byte) {
		respCh <- frameV2{op: op, id: req.id, parts: parts}
	}
	if len(req.parts) != 1 {
		reply(opErr, []byte("getblkstream: want [name]"))
		return
	}
	name := string(req.parts[0])
	blk, ok := s.backend.GetBlock(name)
	if !ok {
		reply(opErrNotFound, []byte(fmt.Sprintf("getblkstream: no block %q", name)))
		return
	}
	if int64(len(blk.Payload)) > maxStreamBytes {
		reply(opErr, []byte(fmt.Sprintf("getblkstream: block of %d bytes exceeds the stream limit", len(blk.Payload))))
		return
	}
	head, err := s.blockHead(blk)
	if err != nil {
		reply(opErr, []byte(fmt.Sprintf("getblkstream: %v", err)))
		return
	}
	reply(opStreamHdr, append(head, u64be(uint64(len(blk.Payload))))...)
	var seq uint32
	for off := 0; off < len(blk.Payload); off += streamChunkSize {
		end := off + streamChunkSize
		if end > len(blk.Payload) {
			end = len(blk.Payload)
		}
		seqBuf := make([]byte, 4)
		binary.BigEndian.PutUint32(seqBuf, seq)
		reply(opStreamChunk, seqBuf, blk.Payload[off:end])
		seq++
	}
	count := make([]byte, 4)
	binary.BigEndian.PutUint32(count, seq)
	reply(opStreamEnd, count)
}

// ErrRemote wraps a server-reported error.
var ErrRemote = errors.New("transport: remote error")
