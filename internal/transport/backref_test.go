package transport

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/attr"
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

// TestGetBlksRefsAnswersRepeatsByReference pins a getblks response
// entry by entry: each later name for content an earlier entry inlined
// — the same block, its address, or a distinct block with its address,
// medium and descriptor — is answered with a back-reference, naming the
// block only when the name differs.
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
	want := [][]byte{entry(a), encodeRef(0, ""), {entryMissing}, entry(c), encodeRef(0, ""),
		encodeRef(0, "twin.vid"), entry(be.extra["retitled.vid"])}
	resp := srv.handle(frame{op: opGetBlks, parts: req})
	if resp.op != opOK || len(resp.parts) != len(want) {
		t.Fatalf("response op %d with %d parts", resp.op, len(resp.parts))
	}
	for i, want := range want {
		got := append(bytes.Clone(resp.parts[i]), tailAt(resp.tails, i)...)
		if !bytes.Equal(got, want) {
			t.Errorf("entry %d (%s): %d bytes, want %d", i, req[i], len(got), len(want))
		}
	}

	// A block deferred past the budget is not inlined, so a repeat of it
	// is deferred too: a reference points only at bytes in the response.
	old := batchBudget
	batchBudget = 1 << 10
	t.Cleanup(func() { batchBudget = old })
	resp = srv.handle(frame{op: opGetBlks, parts: keysOf("a.vid", "b.vid")})
	for i, p := range resp.parts {
		if !bytes.Equal(p, []byte{entryDeferred}) {
			t.Errorf("over budget, entry %d = %v, want deferred", i, p)
		}
	}
}

// TestGetBlocksResolvesBackReferences: through the wire, a repeated
// block arrives once and every name for it resolves to that one block —
// one payload, one address, renamed where the server named it otherwise
// — and the response carries each distinct payload once.
func TestGetBlocksResolvesBackReferences(t *testing.T) {
	be, a, c := backrefFixture(t)
	srv := NewServer(be)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()
	names := []string{"a.vid", "b.vid", a.ID, "twin.vid", "c.vid"}

	cl, err := Dial(addr, WithFrameCompression(false))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks, err := cl.GetBlocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
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

	if blocks[4].ID != c.ID {
		t.Errorf("%s resolved to %.12s, want %.12s", names[4], blocks[4].ID, c.ID)
	}
	// Four names for a's content and one for c's: two payloads, and
	// framing under half of one.
	if got, payloads := cl.BytesReceived(), int64(len(a.Payload)+len(c.Payload)); got > payloads+int64(len(a.Payload))/2 {
		t.Errorf("received %d bytes for two distinct payloads of %d bytes", got, payloads)
	}
}

// TestDecodeBlocksRejectsBadReferences: every malformed back-reference
// seed of FuzzGetBlksEntries — forward, to itself, out of range, to a
// missing and to a deferred entry, truncated — fails the response.
func TestDecodeBlocksRejectsBadReferences(t *testing.T) {
	seeds := seedBlksEntries(t)
	for i, seed := range seeds {
		frm, err := readFrameV2(bytes.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = decodeBlocks(frm.parts)
		if real := i < 2; (err == nil) != real {
			t.Errorf("seed %d: decode error %v, want an error %v", i, err, !real)
		}
	}
}
