package transport

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/media"
)

// batchServer starts a server over a seeded store and returns its address
// plus the seeded names, cleaning up with the test.
func batchServer(t *testing.T, blocks int) (addr string, names []string, store *media.Store) {
	t.Helper()
	store = media.NewStore()
	names = make([]string, blocks)
	for i := range names {
		names[i] = fmt.Sprintf("blk-%03d.txt", i)
		store.Put(media.CaptureText(names[i], fmt.Sprintf("payload %d", i), "en"))
	}
	srv := NewServer(NewRegistry(store))
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return bound, names, store
}

func TestGetBlocksBatched(t *testing.T) {
	addr, names, store := batchServer(t, 16)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Mix found names, a content address, a duplicate and a missing name.
	id, _ := store.Resolve(names[2])
	req := []string{names[0], "no-such-block", names[3], id, names[0]}
	blocks, err := c.GetBlocks(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != len(req) {
		t.Fatalf("got %d results for %d names", len(blocks), len(req))
	}
	if blocks[1] != nil {
		t.Errorf("missing name yielded a block: %v", blocks[1])
	}
	for _, i := range []int{0, 2, 3, 4} {
		if blocks[i] == nil {
			t.Fatalf("result %d missing", i)
		}
		if err := blocks[i].Verify(); err != nil {
			t.Errorf("result %d: %v", i, err)
		}
	}
	if blocks[0].Name != names[0] || blocks[4].Name != names[0] {
		t.Errorf("duplicate name results disagree: %q / %q", blocks[0].Name, blocks[4].Name)
	}
	if blocks[3].ID != id {
		t.Errorf("by-id result = %q, want %q", blocks[3].ID, id)
	}
	// Four unique names fit one frame: exactly one round trip.
	if c.RoundTrips() != 1 {
		t.Errorf("RoundTrips = %d, want 1", c.RoundTrips())
	}

	// The wire-call arithmetic batching exists for: without a cache, N
	// per-block fetches cost exactly N round trips, and the same N names
	// through one GetBlocks cost at most an eighth of that.
	n := int64(len(names))
	before := c.RoundTrips()
	for _, name := range names {
		if _, err := c.GetBlock(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.RoundTrips() - before; got != n {
		t.Errorf("%d per-block fetches cost %d round trips, want exactly %d", n, got, n)
	}
	before = c.RoundTrips()
	if _, err := c.GetBlocks(context.Background(), names); err != nil {
		t.Fatal(err)
	}
	if got := c.RoundTrips() - before; got*8 > n {
		t.Errorf("batched fetch of %d names cost %d round trips, want ≤ %d", n, got, n/8)
	}
}

func TestGetBlocksChunksLargeBatches(t *testing.T) {
	addr, names, _ := batchServer(t, maxBatch+7)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	blocks, err := c.GetBlocks(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if b == nil || b.Name != names[i] {
			t.Fatalf("result %d = %v, want %q", i, b, names[i])
		}
	}
	if c.RoundTrips() != 2 {
		t.Errorf("RoundTrips = %d, want 2 (ceil(%d/%d))", c.RoundTrips(), len(names), maxBatch)
	}
}

// TestGetBlocksDefersOversizedEntries pins the frame-limit behaviour: a
// batch whose payloads exceed the response budget defers the overflow
// entries, and the client transparently re-fetches them one at a time.
func TestGetBlocksDefersOversizedEntries(t *testing.T) {
	old := batchBudget
	// 16 bytes: the first ~9-byte payload fits, the rest overflow the
	// budget and must come back deferred.
	batchBudget = 16
	t.Cleanup(func() { batchBudget = old })

	addr, names, _ := batchServer(t, 6)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	blocks, err := c.GetBlocks(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if b == nil || b.Name != names[i] {
			t.Fatalf("result %d = %v, want %q", i, b, names[i])
		}
		if err := b.Verify(); err != nil {
			t.Errorf("result %d: %v", i, err)
		}
	}
	// One batch round trip plus one single-block fetch per deferred
	// entry: more than 1, at most 1+len(names).
	if c.RoundTrips() <= 1 || c.RoundTrips() > int64(1+len(names)) {
		t.Errorf("RoundTrips = %d, want in (1, %d]", c.RoundTrips(), 1+len(names))
	}
}

func TestGetDescriptors(t *testing.T) {
	// Image blocks: payloads (64 KiB each) dwarf their descriptors, so
	// the no-payload-on-the-wire assertion below is meaningful.
	store := media.NewStore()
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("img-%d", i)
		store.Put(media.CaptureImage(names[i], 256, 256, uint64(i)+1))
	}
	srv := NewServer(NewRegistry(store))
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

	req := append([]string{"missing.img"}, names...)
	descs, err := c.GetDescriptors(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := descs["missing.img"]; ok {
		t.Error("missing name present in descriptor map")
	}
	for _, name := range names {
		desc, ok := descs[name]
		if !ok {
			t.Fatalf("descriptor for %q missing", name)
		}
		blk, _ := store.GetByName(name)
		wantBytes, _ := blk.Descriptor.GetInt(media.DescBytes)
		gotBytes, ok := desc.GetInt(media.DescBytes)
		if !ok || gotBytes != wantBytes {
			t.Errorf("%q bytes attr = %d, want %d", name, gotBytes, wantBytes)
		}
	}
	// Descriptors travel without payloads: the response must be far
	// smaller than the payload total.
	if c.BytesReceived() >= store.TotalBytes() {
		t.Errorf("descriptor batch moved %d bytes, payload total %d — payloads leaked onto the wire",
			c.BytesReceived(), store.TotalBytes())
	}
}
