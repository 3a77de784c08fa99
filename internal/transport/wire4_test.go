package transport

import (
	"bufio"
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/media"
)

// startServerV4 starts a server with the given compression setting over
// a store of its own.
func startServerV4(t *testing.T, store *media.Store, compress bool) (string, *Server) {
	t.Helper()
	srv := NewServer(NewRegistry(store))
	srv.Compression = compress
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

// randomBlock builds a block with an incompressible pseudo-random
// payload (seeded, so tests are deterministic).
func randomBlock(name string, size int, seed int64) *media.Block {
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, size)
	rng.Read(payload)
	return media.NewBlock(name, core.MediumVideo, payload, attr.List{})
}

// textBlock builds a highly compressible text payload.
func textBlockV4(name string, size int) *media.Block {
	payload := bytes.Repeat([]byte("the quick brown CMIF document fox "), size/34+1)[:size]
	return media.NewBlock(name, core.MediumText, payload, attr.List{})
}

// TestHelloNegotiationMatrix pins the codec negotiation grid: when the
// compressed request envelope actually activates.
func TestHelloNegotiationMatrix(t *testing.T) {
	cases := []struct {
		name           string
		serverCompress bool
		opts           []DialOption
		wantCompressed bool
	}{
		{"v4 both, codec on", true, nil, true},
		{"v4 both, server codec off", false, nil, false},
		{"v4 both, client declines", true, []DialOption{WithFrameCompression(false)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := media.NewStore()
			store.Put(textBlockV4("t.txt", 2048))
			addr, _ := startServerV4(t, store, tc.serverCompress)
			c, err := Dial(addr, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.compress != tc.wantCompressed {
				t.Fatalf("Compressed() = %v, want %v", c.compress, tc.wantCompressed)
			}
			// Whatever was negotiated, a fetch still round-trips.
			blk, err := c.GetBlock(context.Background(), "t.txt")
			if err != nil {
				t.Fatal(err)
			}
			if len(blk.Payload) != 2048 {
				t.Fatalf("payload %d bytes, want 2048", len(blk.Payload))
			}
		})
	}
}

// TestCompressedRoundTrip moves compressible payloads both directions
// under the negotiated codec and checks the wire actually shrank.
func TestCompressedRoundTrip(t *testing.T) {
	addr, _ := startServerV4(t, media.NewStore(), true)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.compress {
		t.Fatal("compression not negotiated")
	}
	ctx := context.Background()

	// Client -> server: a compressible put must ship deflated.
	blk := textBlockV4("story.txt", 256<<10)
	if _, err := c.PutBlock(ctx, blk); err != nil {
		t.Fatal(err)
	}
	if c.CompressedFrames() == 0 {
		t.Error("compressible put shipped no compressed request frames")
	}
	if c.CompressedBytesSaved() <= 0 {
		t.Errorf("CompressedBytesSaved = %d, want > 0", c.CompressedBytesSaved())
	}
	if c.BytesSent() >= int64(len(blk.Payload)) {
		t.Errorf("sent %d bytes for a %d-byte compressible payload", c.BytesSent(), len(blk.Payload))
	}

	// Server -> client: the response frame deflates too.
	before := c.BytesReceived()
	got, err := c.GetBlock(ctx, "story.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, blk.Payload) {
		t.Fatal("payload corrupted through the compressed round trip")
	}
	respBytes := c.BytesReceived() - before
	if respBytes*2 > int64(len(blk.Payload)) {
		t.Errorf("received %d bytes for a %d-byte compressible payload, want at most half", respBytes, len(blk.Payload))
	}

	// Incompressible payloads bypass the envelope but stay intact.
	rnd := randomBlock("noise.bin", 128<<10, 7)
	if _, err := c.PutBlock(ctx, rnd); err != nil {
		t.Fatal(err)
	}
	back, err := c.GetBlock(ctx, rnd.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Payload, rnd.Payload) {
		t.Fatal("incompressible payload corrupted")
	}
}

// TestVectoredWritePath forces every frame through the writev gather
// path and checks payloads survive byte-for-byte.
func TestVectoredWritePath(t *testing.T) {
	old := vectoredThreshold
	vectoredThreshold = 1
	t.Cleanup(func() { vectoredThreshold = old })

	store := media.NewStore()
	blk := randomBlock("clip.bin", 256<<10, 99)
	store.Put(blk)
	addr, _ := startServerV4(t, store, false)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.GetBlock(context.Background(), "clip.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, blk.Payload) {
		t.Fatal("payload corrupted through the vectored path")
	}
	// A batch with empty and non-empty parts exercises the prefix
	// folding in the gather list.
	names := []string{"clip.bin", "no-such-block", "clip.bin"}
	blks, err := c.GetBlocks(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if blks[0] == nil || blks[1] != nil || blks[2] == nil {
		t.Fatalf("batch shape wrong: %v", blks)
	}
}

// TestRetiredDedupeOpsAnswerPlainError pins the wire contract for the
// retired request ops: 3 (the single-block get), 7 (getblks without
// back-reference or chunked entries), 17 (block manifest), 18 (chunks by
// hash) and 19 (getblks with back-references only). A current server
// answers each with opErr, never opOK and never opErrNotFound, even for
// a block it holds or a name it does not, and the connection keeps
// serving: a getblks after each is answered.
func TestRetiredDedupeOpsAnswerPlainError(t *testing.T) {
	store := media.NewStore()
	blk := randomBlock("clip.vid", 4*media.ChunkThreshold, 17)
	store.Put(blk)
	addr, _ := startServerV4(t, store, false)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := writeFrame(conn, opHello, []byte{protoVersion}); err != nil {
		t.Fatal(err)
	}
	if ack, err := readFrame(br); err != nil || ack.op != opOK {
		t.Fatalf("hello ack = %v, %v", ack.op, err)
	}
	chunk := chunker.Sum(chunker.Split(blk.Payload, chunker.Config{})[0])
	for i, req := range []struct {
		name string
		op   byte
		part []byte
	}{
		{"single-block get", 3, []byte(blk.Name)},
		{"getblks without references", 7, []byte(blk.Name)},
		{"manifest of a held block", 17, []byte(blk.Name)},
		{"manifest of a missing block", 17, []byte("ghost")},
		{"chunks by hash", 18, chunk[:]},
		{"getblks with back-references", 19, []byte(blk.Name)},
	} {
		id := uint32(2*i + 1)
		if err := writeFrameV2(conn, req.op, id, req.part); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrameV2(br)
		if err != nil {
			t.Fatalf("%s: %v", req.name, err)
		}
		if resp.id != id || resp.op != opErr {
			t.Errorf("%s: response op %d id %d, want opErr (%d) for id %d", req.name, resp.op, resp.id, opErr, id)
		}
		if err := writeFrameV2(conn, opGetBlks, id+1, []byte(blk.Name)); err != nil {
			t.Fatal(err)
		}
		if resp, err := readFrameV2(br); err != nil || resp.op != opOK || resp.id != id+1 {
			t.Fatalf("getblks after %s: %v, %v", req.name, resp, err)
		}
	}
}
