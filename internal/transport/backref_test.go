package transport

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
)

// twinBackend serves extra blocks by name beside a registry: blocks that
// are distinct values with one content address, which a media.Store
// would collapse into one.
type twinBackend struct {
	*Registry
	extra map[string]*media.Block
}

func (b twinBackend) GetBlock(name string) (*media.Block, bool) {
	if blk, ok := b.extra[name]; ok {
		return blk, true
	}
	return b.Registry.GetBlock(name)
}

// backrefFixture is a store holding a block under two names, a second
// block, and a backend adding a same-content block under a third name
// and one with the same bytes but another descriptor. The blocks are too
// small to chunk, so every entry but a back-reference travels found.
func backrefFixture(t *testing.T) (be twinBackend, a, c *media.Block) {
	t.Helper()
	store := media.NewStore()
	a = randomBlock("a.vid", media.ChunkThreshold-1, 31)
	c = randomBlock("c.vid", media.ChunkThreshold-1, 32)
	store.Put(a)
	store.Put(a.WithName("b.vid")) // one stored block, two names
	store.Put(c)
	twin := media.NewBlock("twin.vid", a.Medium, a.Payload, attr.List{})
	if twin.ID != a.ID {
		t.Fatal("the twin has another address; the fixture would prove nothing")
	}
	other := media.NewBlock("retitled.vid", a.Medium, a.Payload, descOf(media.DescTitle, attr.String("retitled")))
	return twinBackend{NewRegistry(store), map[string]*media.Block{"twin.vid": twin, "retitled.vid": other}}, a, c
}

func descOf(name string, v attr.Value) attr.List {
	var desc attr.List
	desc.Set(name, v)
	return desc
}

func keysOf(names ...string) [][]byte {
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

// TestGetBlksRefsAnswersRepeatsByReference pins the two getblks
// responses entry by entry: opGetBlksChunked answers each later name for
// content an earlier entry inlined — the same block, its address, or a
// distinct block with its address, medium and descriptor — with a
// back-reference, naming the block only when the name differs; opGetBlks
// answers the same request with every payload, as before.
func TestGetBlksRefsAnswersRepeatsByReference(t *testing.T) {
	be, a, c := backrefFixture(t)
	srv := NewServer(be)
	req := keysOf("a.vid", "b.vid", "ghost", "c.vid", a.ID, "twin.vid", "retitled.vid")
	entry := func(b *media.Block) []byte {
		desc, err := b.DescriptorText()
		if err != nil {
			t.Fatal(err)
		}
		return entryPart([]byte(b.Name), []byte(b.Medium.String()), desc, b.Payload)
	}
	retitled := be.extra["retitled.vid"]
	for _, tc := range []struct {
		op   byte
		want [][]byte
	}{
		{opGetBlksChunked, [][]byte{entry(a), encodeRef(0, ""), {entryMissing}, entry(c), encodeRef(0, ""),
			encodeRef(0, "twin.vid"), entry(retitled)}},
		{opGetBlks, [][]byte{entry(a), entry(a), {entryMissing}, entry(c), entry(a),
			entry(be.extra["twin.vid"]), entry(retitled)}},
	} {
		resp := srv.handle(frame{op: tc.op, parts: req})
		if resp.op != opOK || len(resp.parts) != len(tc.want) {
			t.Fatalf("op %d: response op %d with %d parts", tc.op, resp.op, len(resp.parts))
		}
		for i, want := range tc.want {
			got := append(bytes.Clone(resp.parts[i]), tailAt(resp.tails, i)...)
			if !bytes.Equal(got, want) {
				t.Errorf("op %d, entry %d (%s): %d bytes, want %d", tc.op, i, req[i], len(got), len(want))
			}
		}
	}

	// A block deferred past the budget is not inlined, so a repeat of it
	// is deferred too: a reference points only at bytes in the response.
	old := batchBudget
	batchBudget = 1 << 10
	t.Cleanup(func() { batchBudget = old })
	resp := srv.handle(frame{op: opGetBlksChunked, parts: keysOf("a.vid", "b.vid")})
	for i, p := range resp.parts {
		if !bytes.Equal(p, []byte{entryDeferred}) {
			t.Errorf("over budget, entry %d = %v, want deferred", i, p)
		}
	}
}

// TestGetBlocksResolvesBackReferences: through the wire, a repeated
// block arrives once and every name for it resolves to that one block —
// one payload, one address, renamed where the server named it otherwise
// — and the response is smaller than the same fetch without references.
func TestGetBlocksResolvesBackReferences(t *testing.T) {
	be, a, _ := backrefFixture(t)
	srv := NewServer(be)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()
	names := []string{"a.vid", "b.vid", a.ID, "twin.vid", "c.vid"}

	fetch := func(plain bool) ([]*media.Block, int64) {
		c, err := Dial(addr, WithFrameCompression(false))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.plainGetBlks.Store(plain)
		blocks, err := c.GetBlocks(ctx, names)
		if err != nil {
			t.Fatal(err)
		}
		return blocks, c.BytesReceived()
	}
	blocks, refBytes := fetch(false)
	for i := 1; i < 3; i++ {
		if blocks[i] != blocks[0] {
			t.Errorf("%s resolved to another block value than %s", names[i], names[0])
		}
	}
	twin := blocks[3]
	if twin.Name != "twin.vid" || twin.ID != a.ID || &twin.Payload[0] != &blocks[0].Payload[0] {
		t.Errorf("twin = %q %.12s, want twin.vid sharing a.vid's payload and address", twin.Name, twin.ID)
	}
	for i, b := range blocks {
		if err := b.Verify(); err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}

	plainBlocks, plainBytes := fetch(true)
	for i := range names {
		if plainBlocks[i].ID != blocks[i].ID || plainBlocks[i].Name != blocks[i].Name {
			t.Errorf("%s: without references %s %.12s, with %s %.12s", names[i],
				plainBlocks[i].Name, plainBlocks[i].ID, blocks[i].Name, blocks[i].ID)
		}
	}
	if saved := plainBytes - refBytes; saved < 3*int64(len(a.Payload)) {
		t.Errorf("references saved %d bytes, want at least three payloads of %d", saved, len(a.Payload))
	}
}

// TestEarlierClientGetsFullPayloads: a client that only speaks opGetBlks
// reads every entry of the new server's answer as found, payload inline,
// with no back-reference.
func TestEarlierClientGetsFullPayloads(t *testing.T) {
	be, a, _ := backrefFixture(t)
	srv := NewServer(be)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := keysOf("a.vid", "b.vid", a.ID, "twin.vid")
	if err := c.fetchBatched(context.Background(), opGetBlks, keys, 4, func(i int, fields [][]byte, flag byte) error {
		if flag != entryFound || !bytes.Equal(fields[3], a.Payload) {
			t.Errorf("%s: flag %d, want a found entry carrying the payload", keys[i], flag)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGetBlocksFallsBackOnRefusal: against a server that refuses
// opGetBlksChunked with a plain opErr, as one of an earlier release does,
// the client retries the frame as opGetBlks, fetches the same blocks, and
// asks with opGetBlks alone for the rest of the connection. A failure
// both ops share leaves references on.
func TestGetBlocksFallsBackOnRefusal(t *testing.T) {
	be, a, c := backrefFixture(t)
	bad := media.NewBlock("bad.vid", core.MediumVideo, []byte("x"), descOf("seq", attr.Number(1)))
	be.extra["bad.vid"] = bad
	if _, err := bad.DescriptorText(); err == nil {
		t.Fatal("the bad descriptor encodes; the failure case would prove nothing")
	}
	srv := NewServer(be)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.GetBlocks(ctx, []string{"a.vid", "bad.vid"}); err == nil || !errors.Is(err, ErrRemote) {
		t.Fatalf("fetch of an unencodable descriptor = %v, want a remote error", err)
	}
	if cl.plainGetBlks.Load() {
		t.Error("a failure opGetBlks shares turned references off")
	}

	spec := opTable[opGetBlksChunked]
	delete(opTable, opGetBlksChunked)
	t.Cleanup(func() { opTable[opGetBlksChunked] = spec })
	old, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	names := []string{"a.vid", "b.vid", "c.vid"}
	blocks, err := old.GetBlocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []*media.Block{a, a, c} {
		if blocks[i] == nil || blocks[i].ID != want.ID || !bytes.Equal(blocks[i].Payload, want.Payload) {
			t.Errorf("%s: fetched the wrong block", names[i])
		}
	}
	if n := old.RoundTrips(); n != 2 || !old.plainGetBlks.Load() {
		t.Errorf("refused fetch: %d round trips, plain %v; want 2 and plain", n, old.plainGetBlks.Load())
	}
	if _, err := old.GetBlocks(ctx, names); err != nil || old.RoundTrips() != 3 {
		t.Errorf("second fetch: %v after %d round trips, want one more than 2", err, old.RoundTrips())
	}
}

// TestDecodeBlocksRejectsBadReferences: every malformed back-reference
// seed of FuzzGetBlksEntries — forward, to itself, out of range, to a
// missing and to a deferred entry, truncated — fails the response, and
// a plain getblks response rejects even a well-formed one.
func TestDecodeBlocksRejectsBadReferences(t *testing.T) {
	seeds := seedBlksEntries(t)
	for i, seed := range seeds {
		frm, err := readFrameV2(bytes.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = decodeBlocks(frm.parts, true)
		if real := i < 2; (err == nil) != real {
			t.Errorf("seed %d: decode error %v, want an error %v", i, err, !real)
		}
		if _, _, err := decodeBlocks(frm.parts, false); err == nil {
			t.Errorf("seed %d: a plain getblks response accepted a back-reference", i)
		}
	}
}
