package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
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
			if c.Compressed() != tc.wantCompressed {
				t.Fatalf("Compressed() = %v, want %v", c.Compressed(), tc.wantCompressed)
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
	if !c.Compressed() {
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

// TestDedupeFetchPath exercises the manifest/chunk path end to end: a
// cold fetch seeds the chunk cache, a warm re-fetch moves only the
// manifest, and a near-duplicate moves only its changed chunks.
func TestDedupeFetchPath(t *testing.T) {
	store := media.NewStore()
	base := randomBlock("video.v1", 512<<10, 42)
	store.Put(base)

	// A near-duplicate: same payload with a small splice in the middle.
	edited := append([]byte(nil), base.Payload...)
	copy(edited[256<<10:], []byte(strings.Repeat("EDIT", 64)))
	variant := media.NewBlock("video.v2", base.Medium, edited, attr.List{})
	store.Put(variant)

	addr, _ := startServerV4(t, store, false)
	c, err := Dial(addr, WithChunkCache(NewChunkCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// fetch wraps GetBlock in the bytes-on-wire arithmetic every dedupe
	// fetch owes: each payload byte came off the wire or out of the
	// chunk cache (the server here does not compress, so wire bytes
	// cannot undershoot the chunks that missed). It returns the block
	// and the bytes the fetch received.
	fetch := func(name string) (*media.Block, int64) {
		t.Helper()
		recv, saved := c.BytesReceived(), c.DedupeBytesSaved()
		blk, err := c.GetBlock(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		wire := c.BytesReceived() - recv
		if cached := c.DedupeBytesSaved() - saved; wire+cached < int64(len(blk.Payload)) {
			t.Errorf("%s: %d bytes received + %d from cache do not cover the %d-byte payload",
				name, wire, cached, len(blk.Payload))
		}
		return blk, wire
	}

	// Cold fetch: the manifest path runs but every chunk misses, so the
	// payload still crosses the wire once (as chunks) and seeds the cache.
	cold, _ := fetch("video.v1")
	if !bytes.Equal(cold.Payload, base.Payload) {
		t.Fatal("cold dedupe fetch corrupted the payload")
	}
	if c.DedupeFetches() != 1 {
		t.Fatalf("DedupeFetches = %d after cold fetch, want 1", c.DedupeFetches())
	}

	// Warm re-fetch: everything is cached; only the manifest moves, and
	// the fetch is still manifest-assembled, not a whole-payload fallback.
	warm, warmBytes := fetch("video.v1")
	if !bytes.Equal(warm.Payload, base.Payload) {
		t.Fatal("warm dedupe fetch corrupted the payload")
	}
	if c.DedupeFetches() != 2 {
		t.Errorf("DedupeFetches = %d after warm fetch, want 2", c.DedupeFetches())
	}
	if warmBytes >= int64(len(base.Payload))/10 {
		t.Errorf("warm re-fetch moved %d bytes for a %d-byte block", warmBytes, len(base.Payload))
	}
	if c.DedupeBytesSaved() < int64(len(base.Payload)) {
		t.Errorf("DedupeBytesSaved = %d, want >= %d", c.DedupeBytesSaved(), len(base.Payload))
	}

	// Near-duplicate: most chunks are already cached from v1.
	got, variantBytes := fetch("video.v2")
	if !bytes.Equal(got.Payload, edited) {
		t.Fatal("variant dedupe fetch corrupted the payload")
	}
	if variantBytes >= int64(len(edited))/2 {
		t.Errorf("near-duplicate fetch moved %d of %d bytes", variantBytes, len(edited))
	}
}

// TestDedupeFallback pins every road back to the plain path: blocks
// below the chunk threshold and a client without a chunk cache both
// still serve correct bytes.
func TestDedupeFallback(t *testing.T) {
	store := media.NewStore()
	small := textBlockV4("small.txt", 512) // below media.ChunkThreshold
	store.Put(small)
	big := randomBlock("big.bin", 64<<10, 3)
	store.Put(big)

	addr, _ := startServerV4(t, store, false)

	t.Run("small block falls back", func(t *testing.T) {
		c, err := Dial(addr, WithChunkCache(NewChunkCache(0)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, err := c.GetBlock(context.Background(), "small.txt")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, small.Payload) {
			t.Fatal("payload mismatch")
		}
		if c.DedupeFetches() != 0 {
			t.Errorf("DedupeFetches = %d for a sub-threshold block", c.DedupeFetches())
		}
	})

	t.Run("client without a chunk cache", func(t *testing.T) {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, err := c.GetBlock(context.Background(), "big.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, big.Payload) {
			t.Fatal("payload mismatch")
		}
		if c.DedupeFetches() != 0 || c.DedupeBytesSaved() != 0 {
			t.Errorf("dedupe counters moved (%d fetches, %d bytes) without a chunk cache",
				c.DedupeFetches(), c.DedupeBytesSaved())
		}
		// No codec, no dedupe: the wire carried at least the payload.
		if c.BytesReceived() < int64(len(big.Payload)) {
			t.Errorf("plain fetch received %d bytes, below the %d-byte payload it delivered",
				c.BytesReceived(), len(big.Payload))
		}
	})

	t.Run("missing block is still not found", func(t *testing.T) {
		c, err := Dial(addr, WithChunkCache(NewChunkCache(0)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.GetBlock(context.Background(), "ghost"); err == nil {
			t.Fatal("fetch of a missing block succeeded")
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})
}

// TestLyingManifestAllocatesNothing answers getblkmanifest with a
// declared size of 2 GiB but a single entry: the client must refuse the
// manifest before allocating the payload, then fall back to the batched
// fetch.
func TestLyingManifestAllocatesNothing(t *testing.T) {
	const declared = uint64(1) << 31
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		if !ackHello(t, conn, br, 8) {
			return
		}
		for {
			req, err := readFrameV2(br)
			if err != nil {
				return
			}
			var op byte
			var parts [][]byte
			switch req.op {
			case opGetBlkManifest:
				size := make([]byte, 8)
				binary.BigEndian.PutUint64(size, declared)
				entry := make([]byte, manifestEntrySize)
				binary.BigEndian.PutUint32(entry[chunker.HashSize:], 4096)
				op = opOK
				parts = [][]byte{req.parts[0], []byte("video"), []byte("(ext)"), []byte("id"), size, entry}
			case opGetBlks:
				op = opOK
				for range req.parts {
					parts = append(parts, []byte{entryMissing})
				}
			default:
				op, parts = opErrNotFound, [][]byte{[]byte("no such block")}
			}
			if err := writeFrameV2(conn, op, req.id, parts...); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithChunkCache(NewChunkCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.GetBlock(context.Background(), "liar.vid")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want the batched fetch's ErrNotFound", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("a lying manifest made the client allocate %d MiB", n>>20)
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

// TestChunkCacheBudget pins the byte-budget LRU behaviour.
func TestChunkCacheBudget(t *testing.T) {
	cc := NewChunkCache(10 << 10)
	data := make([]byte, 4<<10)
	var keys []media.ChunkHash
	for i := 0; i < 4; i++ {
		data[0] = byte(i)
		h := chunker.Sum(data)
		cc.Add(h, data)
		keys = append(keys, h)
	}
	st := cc.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("cache holds %d bytes over a %d budget", st.Bytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the budget")
	}
	// The most recent insert is resident, the oldest is gone.
	if _, ok := cc.Get(keys[3]); !ok {
		t.Error("most recent chunk evicted")
	}
	if _, ok := cc.Get(keys[0]); ok {
		t.Error("oldest chunk survived over budget")
	}
	// An over-budget chunk is refused outright.
	huge := make([]byte, 16<<10)
	cc.Add(chunker.Sum(huge), huge)
	if cc.Stats().Bytes > 10<<10 {
		t.Error("over-budget chunk was cached")
	}
}
