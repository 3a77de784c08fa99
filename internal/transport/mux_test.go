package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
)

// exerciseClient drives every client op against a server holding the
// fixture corpus, verifying results.
func exerciseClient(t *testing.T, c *Client) {
	t.Helper()
	ctx := context.Background()
	doc, err := c.GetDoc(ctx, "news", GetDocOptions{})
	if err != nil {
		t.Fatalf("GetDoc: %v", err)
	}
	if doc.Root.Name() != "news" {
		t.Errorf("GetDoc root = %q", doc.Root.Name())
	}
	blk, err := c.GetBlock(ctx, "anchor.vid")
	if err != nil {
		t.Fatalf("GetBlock: %v", err)
	}
	if blk.Name != "anchor.vid" {
		t.Errorf("GetBlock name = %q", blk.Name)
	}
	blocks, err := c.GetBlocks(ctx, []string{"anchor.vid", "voice.aud", "ghost"})
	if err != nil {
		t.Fatalf("GetBlocks: %v", err)
	}
	if blocks[0] == nil || blocks[1] == nil || blocks[2] != nil {
		t.Errorf("GetBlocks = %v", blocks)
	}
	descs, err := c.GetDescriptors(ctx, []string{"voice.aud"})
	if err != nil || len(descs) != 1 {
		t.Fatalf("GetDescriptors = %v, %v", descs, err)
	}
	names, err := c.ListDocs(ctx)
	if err != nil || len(names) != 1 || names[0] != "news" {
		t.Fatalf("ListDocs = %v, %v", names, err)
	}
	if _, err := c.GetBlock(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing block error = %v, want ErrNotFound", err)
	}
	if err := c.PutDoc(ctx, "copy", doc, EncodingBinary); err != nil {
		t.Fatalf("PutDoc: %v", err)
	}
	if _, err := c.PutBlock(ctx, blk); err != nil {
		t.Fatalf("PutBlock: %v", err)
	}
}

// TestVersionNegotiationMatrix runs the full client workout over a v4
// hello: every classic operation works on the one protocol generation.
func TestVersionNegotiationMatrix(t *testing.T) {
	t.Run("client4-server4", func(t *testing.T) {
		d, store := fixture(t)
		reg := NewRegistry(store)
		reg.PutDoc("news", d)
		addr, _ := startServer(t, reg)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		exerciseClient(t, c)
	})
}

// rawServer accepts exactly one connection and hands it to script. The
// listener closes with the test.
func rawServer(t *testing.T, script func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		script(conn, bufio.NewReader(conn))
	}()
	return l.Addr().String()
}

// ackHello consumes the client's hello and answers the v4 agreement,
// without compression.
func ackHello(t *testing.T, conn net.Conn, br *bufio.Reader, maxInFlight uint16) bool {
	t.Helper()
	req, err := readFrame(br)
	if err != nil || req.op != opHello {
		t.Errorf("first frame op = %v, err = %v, want hello", req.op, err)
		return false
	}
	ad := make([]byte, 2)
	binary.BigEndian.PutUint16(ad, maxInFlight)
	if err := writeFrame(conn, opOK, []byte{protoVersion}, ad, []byte{codec.FrameCodecNone}); err != nil {
		t.Errorf("hello ack: %v", err)
		return false
	}
	return true
}

// TestHelloRefusedFailsDialUnsupported pins the client half of the
// retirement: a server that answers the hello with opErr — an old build
// ("unknown op 9"), or a new one refusing the offer — or with any
// version but v4 fails the dial with ErrUnsupported; there is no older
// protocol to degrade to. A malformed v4 answer stays a plain error.
func TestHelloRefusedFailsDialUnsupported(t *testing.T) {
	ad := []byte{0, 8}
	for _, tc := range []struct {
		name        string
		op          byte
		parts       [][]byte
		unsupported bool
	}{
		{"refused", opErr, [][]byte{[]byte("unknown op 9")}, true},
		{"answers v3", opOK, [][]byte{{3}, ad}, true},
		{"answers v5", opOK, [][]byte{{5}, ad, {codec.FrameCodecNone}}, true},
		{"missing codec byte", opOK, [][]byte{{protoVersion}, ad}, false},
		{"short maxInFlight", opOK, [][]byte{{protoVersion}, {8}, {codec.FrameCodecNone}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
				req, err := readFrame(br)
				if err != nil || req.op != opHello {
					t.Errorf("first frame op = %v, err = %v, want hello", req.op, err)
					return
				}
				_ = writeFrame(conn, tc.op, tc.parts...)
			})
			c, err := Dial(addr)
			if err == nil {
				c.Close()
				t.Fatal("Dial succeeded against a server that did not agree on v4")
			}
			if errors.Is(err, ErrUnsupported) != tc.unsupported {
				t.Fatalf("Dial error = %v, want errors.Is(err, ErrUnsupported) == %v", err, tc.unsupported)
			}
		})
	}
}

// TestServerRefusesV1Peers pins the server half, on raw frames: a
// connection that opens with anything but a hello, or whose hello offers
// less than v4, gets exactly one v1-framed opErr naming the retirement,
// and then the connection closes. A hello offering a newer version is
// answered with v4, the pipelining bound and the codec byte.
func TestServerRefusesV1Peers(t *testing.T) {
	addr, _ := startServer(t, NewRegistry(nil))
	refusal := frame{op: opErr, parts: [][]byte{[]byte(retiredRefusal)}}
	for _, tc := range []struct {
		name string
		req  frame
		want frame
	}{
		{"no hello", frame{op: opList}, refusal},
		{"hello offering v1", frame{op: opHello, parts: [][]byte{{1}}}, refusal},
		{"hello offering v2", frame{op: opHello, parts: [][]byte{{2}}}, refusal},
		{"hello offering v3", frame{op: opHello, parts: [][]byte{{3}}}, refusal},
		{"hello offering v9", frame{op: opHello, parts: [][]byte{{9}}},
			frame{op: opOK, parts: [][]byte{{protoVersion}, {0, defaultMaxInFlight}, {codec.FrameCodecNone}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := writeFrame(conn, tc.req.op, tc.req.parts...); err != nil {
				t.Fatal(err)
			}
			resp, err := readFrame(conn)
			if err != nil {
				t.Fatalf("reading the answer: %v", err)
			}
			if resp.op != tc.want.op || fmt.Sprintf("%q", resp.parts) != fmt.Sprintf("%q", tc.want.parts) {
				t.Fatalf("answer = op %d %q, want op %d %q", resp.op, resp.parts, tc.want.op, tc.want.parts)
			}
			if tc.want.op != opErr {
				return
			}
			if _, err := readFrame(conn); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: %v, want the connection closed", err)
			}
		})
	}
}

// TestDialCancellationInterruptsHandshake cancels a deadline-free
// context while the server sits silent after accepting: DialContext
// must return promptly instead of blocking in the hello read forever.
func TestDialCancellationInterruptsHandshake(t *testing.T) {
	accepted := make(chan struct{})
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		close(accepted)
		// Say nothing; just hold the connection open.
		buf := make([]byte, 1)
		_, _ = conn.Read(buf)
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-accepted
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		c, err := DialContext(ctx, addr)
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled dial = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialContext ignored cancellation during the handshake")
	}
}

// TestMuxUnknownRequestIDDropped feeds the client a response frame whose
// request ID matches nothing in flight; the frame must be discarded and
// the connection must keep working.
func TestMuxUnknownRequestIDDropped(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		if !ackHello(t, conn, br, 8) {
			return
		}
		req, err := readFrameV2(br)
		if err != nil {
			t.Errorf("read request: %v", err)
			return
		}
		// A response for a request that never existed...
		_ = writeFrameV2(conn, opOK, req.id+1000, []byte("bogus"))
		// ...then the real answer.
		_ = writeFrameV2(conn, opOK, req.id, []byte("doc-a"))
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names, err := c.ListDocs(context.Background())
	if err != nil || len(names) != 1 || names[0] != "doc-a" {
		t.Fatalf("ListDocs = %v, %v (bogus-ID frame not dropped?)", names, err)
	}
}

// TestMuxRecvPrefersALandedAnswer: a response that reached the call
// before the connection died is returned, not the connection's death —
// a server may answer and then close.
func TestMuxRecvPrefersALandedAnswer(t *testing.T) {
	m := &clientMux{dead: make(chan struct{})}
	close(m.dead)
	for i := 0; i < 100; i++ {
		call := &muxCall{ch: make(chan frameV2, 1)}
		call.ch <- frameV2{op: opOK, id: uint32(i)}
		f, err := m.recv(context.Background(), call)
		if err != nil || f.id != uint32(i) {
			t.Fatalf("recv %d = %+v, %v: the landed answer was dropped", i, f, err)
		}
	}
}

// TestMuxOutOfOrderCompletion pipelines two requests and answers the
// second first: each caller must receive its own response.
func TestMuxOutOfOrderCompletion(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		if !ackHello(t, conn, br, 8) {
			return
		}
		var reqs []frameV2
		for len(reqs) < 2 {
			req, err := readFrameV2(br)
			if err != nil {
				t.Errorf("read request: %v", err)
				return
			}
			reqs = append(reqs, req)
		}
		// Answer in reverse arrival order, echoing each request's name.
		for i := len(reqs) - 1; i >= 0; i-- {
			_ = writeFrameV2(conn, opOK, reqs[i].id, []byte("for:"+string(reqs[i].parts[0])))
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two concurrent list-shaped round trips with distinguishable parts.
	results := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, name := range []string{"first", "second"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			parts, err := c.roundTrip(context.Background(), opList, []byte(name))
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = string(parts[0])
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if results[0] != "for:first" || results[1] != "for:second" {
		t.Errorf("responses misrouted: %q", results)
	}
}

// TestMuxBackpressureBusy pins the server's only in-flight slot with a
// stalled request and verifies the next pipelined request is rejected
// with opErrBusy while the stalled one still completes.
func TestMuxBackpressureBusy(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	srv := NewServer(reg)
	srv.MaxInFlight = 1
	release := make(chan struct{})
	var once sync.Once
	srv.testOpDelay = func(op byte) {
		if op == opGetDoc {
			<-release
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { once.Do(func() { close(release) }); srv.Close() })

	// Speak raw v2 frames so the client-side in-flight bound (sized to
	// the advertised limit) cannot queue the second request locally.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := writeFrame(conn, opHello, []byte{protoVersion}); err != nil {
		t.Fatal(err)
	}
	ack, err := readFrame(br)
	if err != nil || ack.op != opOK {
		t.Fatalf("hello ack = %v, %v", ack.op, err)
	}
	// Request 1 occupies the single slot; request 2 must bounce.
	if err := writeFrameV2(conn, opGetDoc, 1, []byte("news"), []byte{byte(EncodingText)}, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrameV2(conn, opGetDoc, 2, []byte("news"), []byte{byte(EncodingText)}, []byte{0}); err != nil {
		t.Fatal(err)
	}
	busy, err := readFrameV2(br)
	if err != nil {
		t.Fatal(err)
	}
	if busy.op != opErrBusy || busy.id != 2 {
		t.Fatalf("first response op=%d id=%d, want opErrBusy for id 2", busy.op, busy.id)
	}
	once.Do(func() { close(release) })
	ok, err := readFrameV2(br)
	if err != nil {
		t.Fatal(err)
	}
	if ok.op != opOK || ok.id != 1 {
		t.Fatalf("second response op=%d id=%d, want opOK for id 1", ok.op, ok.id)
	}
}

// TestMuxBusySurfacesAsTypedError drives the busy rejection through the
// real client by shrinking the advertised limit server-side.
func TestMuxBusySurfacesAsTypedError(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		if !ackHello(t, conn, br, 8) {
			return
		}
		req, err := readFrameV2(br)
		if err != nil {
			return
		}
		_ = writeFrameV2(conn, opErrBusy, req.id, []byte("busy: 0 requests in flight"))
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ListDocs(context.Background())
	if !errors.Is(err, ErrBusy) || !errors.Is(err, ErrRemote) {
		t.Fatalf("busy rejection = %v, want ErrBusy and ErrRemote", err)
	}
}

// TestStreamedBlockTransfer fetches blocks past the single-frame inline
// budget through the chunked stream — transparently, via the ordinary
// GetBlock/GetBlocks surface.
func TestStreamedBlockTransfer(t *testing.T) {
	oldChunk, oldBudget := streamChunkSize, batchBudget
	streamChunkSize, batchBudget = 1<<10, 1<<11
	t.Cleanup(func() { streamChunkSize, batchBudget = oldChunk, oldBudget })

	store := media.NewStore()
	big := media.CaptureImage("big.img", 80, 80, 7) // 6400 B payload > batchBudget
	store.Put(big)
	store.Put(media.CaptureImage("small.img", 8, 8, 8))
	reg := NewRegistry(store)
	addr, _ := startServer(t, reg)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The batched path defers the big block and re-fetches it; the
	// re-fetch streams in chunks.
	blocks, err := c.GetBlocks(context.Background(), []string{"big.img", "small.img"})
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0] == nil || !bytes.Equal(blocks[0].Payload, big.Payload) {
		t.Error("streamed payload mismatch through GetBlocks")
	}
	if blocks[0].ID != big.ID {
		t.Error("streamed block lost its content address")
	}
	wantChunks := int64((len(big.Payload) + streamChunkSize - 1) / streamChunkSize)
	if got := c.StreamChunks(); got < wantChunks {
		t.Errorf("StreamChunks = %d, want ≥ %d", got, wantChunks)
	}
	// Descriptor survived chunking.
	if blocks[0].Width() != big.Width() || blocks[0].Frames() != big.Frames() {
		t.Error("streamed descriptor mismatch")
	}
}

// TestBatchDeferral pins the deferred-entry re-fetch: entryDeferred
// resolves through the chunked stream.
func TestBatchDeferral(t *testing.T) {
	oldChunk, oldBudget := streamChunkSize, batchBudget
	streamChunkSize, batchBudget = 1<<10, 1<<11
	t.Cleanup(func() { streamChunkSize, batchBudget = oldChunk, oldBudget })

	store := media.NewStore()
	big := media.CaptureImage("big.img", 80, 80, 7)
	store.Put(big)
	store.Put(media.CaptureImage("small.img", 8, 8, 8))
	reg := NewRegistry(store)
	addr, _ := startServer(t, reg)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blocks, err := c.GetBlocks(context.Background(), []string{"big.img", "small.img"})
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0] == nil || !bytes.Equal(blocks[0].Payload, big.Payload) {
		t.Error("deferred payload mismatch")
	}
	if blocks[1] == nil {
		t.Error("inlined entry missing")
	}
	// The deferred re-fetch costs one extra round trip on top of the
	// batch.
	if got := c.RoundTrips(); got != 2 {
		t.Errorf("RoundTrips = %d, want 2", got)
	}
	if c.StreamChunks() == 0 {
		t.Error("deferred entry was not re-fetched through the stream")
	}
}

// TestGetBlockRidesGetBlks pins the single-block fetch as a batch of
// one: a present, a missing and an oversized block all travel through
// opGetBlks (the oversized one deferred to the chunked stream).
func TestGetBlockRidesGetBlks(t *testing.T) {
	oldChunk, oldBudget := streamChunkSize, batchBudget
	streamChunkSize, batchBudget = 1<<10, 1<<11
	t.Cleanup(func() { streamChunkSize, batchBudget = oldChunk, oldBudget })

	store := media.NewStore()
	small := media.CaptureImage("small.img", 8, 8, 8)
	big := media.CaptureImage("big.img", 80, 80, 7) // 6400 B payload > batchBudget
	store.Put(small)
	store.Put(big)
	srv := NewServer(NewRegistry(store))
	srv.Metrics = metrics.NewRegistry()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	requests := func(op string) int64 {
		return srv.Metrics.Counter("cmif_requests_total", "requests received", "op", op).Value()
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	got, err := c.GetBlock(ctx, "small.img")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != small.ID || got.Name != small.Name || got.Medium != small.Medium ||
		!bytes.Equal(got.Payload, small.Payload) || got.Width() != small.Width() {
		t.Errorf("present block = %+v, want %+v", got, small)
	}

	if _, err := c.GetBlock(ctx, "ghost"); !errors.Is(err, ErrNotFound) || !errors.Is(err, ErrRemote) {
		t.Errorf("missing block: err = %v, want ErrRemote and ErrNotFound", err)
	}

	before := c.RoundTrips()
	got, err = c.GetBlock(ctx, "big.img")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != big.ID || !bytes.Equal(got.Payload, big.Payload) {
		t.Error("oversized block came back different")
	}
	// The batch defers the block and the stream carries it: the same two
	// round trips TestStreamedBlockTransfer pays.
	if n := c.RoundTrips() - before; n != 2 {
		t.Errorf("oversized block took %d round trips, want 2", n)
	}
	if c.StreamChunks() == 0 {
		t.Error("oversized block did not travel as a chunked stream")
	}

	if n := requests("getblks"); n != 3 {
		t.Errorf("server saw %d getblks requests, want 3", n)
	}
}

// TestOversizedBlockAnswersDeferred: at the real batch budget, a block
// past the single-frame limit answers getblks as a deferred entry — the
// client's cue for the chunked stream — while a small one beside it
// travels found, instead of the server dying on the response write.
func TestOversizedBlockAnswersDeferred(t *testing.T) {
	store := media.NewStore()
	store.Put(media.CaptureImage("small.img", 8, 8, 7))
	store.Put(media.NewBlock("huge.raw", core.MediumImage, make([]byte, maxFrameSize), attr.List{}))
	srv := NewServer(NewRegistry(store))

	resp := srv.handle(frame{op: opGetBlks, parts: keysOf("small.img", "huge.raw")})
	if resp.op != opOK || len(resp.parts) != 2 {
		t.Fatalf("response op %d with %d parts", resp.op, len(resp.parts))
	}
	if resp.parts[0][0] != entryFound || !bytes.Equal(resp.parts[1], []byte{entryDeferred}) {
		t.Fatalf("entries %d and %v, want found and deferred", resp.parts[0][0], resp.parts[1])
	}
}

// streamScript answers one stream request with the given frame sequence.
func streamScript(t *testing.T, frames func(id uint32) [][]interface{}) string {
	t.Helper()
	return rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		if !ackHello(t, conn, br, 8) {
			return
		}
		for {
			req, err := readFrameV2(br)
			if err != nil {
				return
			}
			for _, f := range frames(req.id) {
				op := f[0].(byte)
				parts := make([][]byte, 0, len(f)-1)
				for _, p := range f[1:] {
					parts = append(parts, p.([]byte))
				}
				if err := writeFrameV2(conn, op, req.id, parts...); err != nil {
					return
				}
			}
			conn.Close()
			return
		}
	})
}

// streamHdrParts builds a valid stream header for a synthetic block.
func streamHdrParts(t *testing.T, payloadSize int) [][]byte {
	t.Helper()
	blk := media.CaptureAudio("trunc.aud", 100, 8000, 440, 3)
	descText, err := media.EncodeDescriptor(blk.Descriptor)
	if err != nil {
		t.Fatal(err)
	}
	size := make([]byte, 8)
	binary.BigEndian.PutUint64(size, uint64(payloadSize))
	return [][]byte{[]byte(blk.Name), []byte(blk.Medium.String()), []byte(descText), size}
}

func u32(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}

// TestStreamTruncationMidTransfer cuts the connection after the header
// and first chunk: the client must fail the fetch — never return a
// partial block — and fail fast on subsequent use of the dead mux.
func TestStreamTruncationMidTransfer(t *testing.T) {
	hdr := streamHdrParts(t, 2048)
	addr := streamScript(t, func(id uint32) [][]interface{} {
		return [][]interface{}{
			append([]interface{}{opStreamHdr}, toIface(hdr)...),
			{opStreamChunk, u32(0), bytes.Repeat([]byte{7}, 1024)},
			// ...and the connection dies here.
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.getBlockStream(context.Background(), "trunc.aud"); err == nil {
		t.Fatal("truncated stream produced a block")
	}
	if _, err := c.ListDocs(context.Background()); err == nil {
		t.Fatal("dead mux accepted another request")
	}
}

func toIface(parts [][]byte) []interface{} {
	out := make([]interface{}, len(parts))
	for i, p := range parts {
		out[i] = p
	}
	return out
}

// TestStreamProtocolViolations drives the reassembler through every
// corruption the wire could carry: out-of-order chunks, payload overflow,
// a lying chunk count, and a short delivery.
func TestStreamProtocolViolations(t *testing.T) {
	hdr := streamHdrParts(t, 2048)
	chunk := bytes.Repeat([]byte{9}, 1024)

	cases := []struct {
		name   string
		frames [][]interface{}
	}{
		{"chunk-out-of-order", [][]interface{}{
			append([]interface{}{opStreamHdr}, toIface(hdr)...),
			{opStreamChunk, u32(1), chunk},
		}},
		{"payload-overflow", [][]interface{}{
			append([]interface{}{opStreamHdr}, toIface(hdr)...),
			{opStreamChunk, u32(0), chunk},
			{opStreamChunk, u32(1), chunk},
			{opStreamChunk, u32(2), chunk},
		}},
		{"count-mismatch", [][]interface{}{
			append([]interface{}{opStreamHdr}, toIface(hdr)...),
			{opStreamChunk, u32(0), chunk},
			{opStreamChunk, u32(1), chunk},
			{opStreamEnd, u32(3)},
		}},
		{"short-delivery", [][]interface{}{
			append([]interface{}{opStreamHdr}, toIface(hdr)...),
			{opStreamChunk, u32(0), chunk},
			{opStreamEnd, u32(1)},
		}},
		{"end-before-header", [][]interface{}{
			{opStreamEnd, u32(0)},
		}},
		{"chunk-before-header", [][]interface{}{
			{opStreamChunk, u32(0), chunk},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := streamScript(t, func(id uint32) [][]interface{} { return tc.frames })
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.getBlockStream(context.Background(), "trunc.aud"); err == nil {
				t.Fatal("corrupt stream produced a block")
			}
		})
	}
}

// TestMuxCancellationDoesNotPoisonConnection cancels one pipelined
// request mid-flight; the other request and every later one must keep
// working on the same connection — the v2 cure for the v1 poisoning.
func TestMuxCancellationDoesNotPoisonConnection(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	srv := NewServer(reg)
	stall := make(chan struct{})
	var once sync.Once
	srv.testOpDelay = func(op byte) {
		if op == opGetDoc {
			<-stall
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { once.Do(func() { close(stall) }); srv.Close() })

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.GetDoc(ctx, "news", GetDocOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled fetch error = %v, want DeadlineExceeded", err)
	}
	// The connection survives: a block fetch (not stalled) succeeds
	// immediately, and after releasing the stall so does a doc fetch.
	if _, err := c.GetBlock(context.Background(), "anchor.vid"); err != nil {
		t.Fatalf("connection poisoned by cancellation: %v", err)
	}
	once.Do(func() { close(stall) })
	if _, err := c.GetDoc(context.Background(), "news", GetDocOptions{}); err != nil {
		t.Fatalf("doc fetch after release: %v", err)
	}
}

// TestMuxPipelinedConcurrency hammers one v2 connection from many
// goroutines mixing ops — the shape the -race job verifies.
func TestMuxPipelinedConcurrency(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	addr, _ := startServer(t, reg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for j := 0; j < 20; j++ {
				switch (i + j) % 3 {
				case 0:
					if _, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingBinary}); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := c.GetBlock(ctx, "anchor.vid"); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := c.GetBlocks(ctx, []string{"anchor.vid", "voice.aud"}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := c.RoundTrips(); got != 8*20 {
		t.Errorf("RoundTrips = %d, want %d", got, 8*20)
	}
}

// TestV2GracefulDrainAnswersInFlight shuts the server down while a v2
// request is stalled in a handler: the response must still arrive.
func TestV2GracefulDrainAnswersInFlight(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	srv := NewServer(reg)
	started := make(chan struct{}, 8)
	srv.testOpDelay = func(op byte) {
		if op == opGetDoc {
			started <- struct{}{}
			time.Sleep(50 * time.Millisecond)
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	result := make(chan error, 1)
	go func() {
		_, err := c.GetDoc(context.Background(), "news", GetDocOptions{})
		result <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	if err := <-result; err != nil {
		t.Errorf("in-flight request during drain: %v", err)
	}
}
