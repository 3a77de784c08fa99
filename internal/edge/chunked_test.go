package edge

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/transport"
)

// TestDiskHitServesCopies: a block read back from the disk tier holds
// its manifest's chunks as its cuts before anything serves it, so a
// disk hit is hashed once, to check it against its address, and never
// cut. A batch of near-duplicates the edge reads from disk then comes
// back as one payload plus chunked entries copying it.
func TestDiskHitServesCopies(t *testing.T) {
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(59)).Read(payload)
	a := media.NewBlock("a.vid", core.MediumVideo, payload, attr.List{})
	edited := bytes.Clone(payload)
	copy(edited[100<<10:], "an edit in the middle")
	b := media.NewBlock("b.vid", core.MediumVideo, edited, attr.List{})

	store := media.NewStore()
	store.Put(a)
	store.Put(b)
	origin := transport.NewServer(transport.NewRegistry(store))
	originAddr, err := origin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	// One block of memory: each block of the batch pushes the other out,
	// so the second fetch reads both from disk.
	e, err := New(Config{Origin: originAddr, CacheDir: t.TempDir(), MemBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr, err := e.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	c, err := transport.Dial(edgeAddr, transport.WithFrameCompression(false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	names := []string{"a.vid", "b.vid"}
	if _, err := c.GetBlocks(ctx, names); err != nil {
		t.Fatal(err)
	}

	for _, want := range []*media.Block{a, b} {
		got, ok := e.disk.Get(want.Name)
		if !ok || got.ID != want.ID {
			t.Fatalf("%s is not on disk", want.Name)
		}
		if !got.CutsKept() {
			t.Fatalf("%s came off disk without its manifest's cuts", want.Name)
		}
		cuts, wantCuts := got.Cuts(), chunker.Cuts(want.Payload)
		if len(cuts) != len(wantCuts) {
			t.Fatalf("%s: %d cuts from the manifest, want %d", want.Name, len(cuts), len(wantCuts))
		}
		for i := range cuts {
			if cuts[i] != wantCuts[i] {
				t.Fatalf("%s: cut %d is %v, want %v", want.Name, i, cuts[i], wantCuts[i])
			}
		}
	}

	hits, trips, before := e.DiskStats().Hits, e.UpstreamRoundTrips(), c.BytesReceived()
	got, err := c.GetBlocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.DiskStats().Hits - hits; n != 2 || e.UpstreamRoundTrips() != trips {
		t.Fatalf("second fetch: %d disk hits and %d upstream round trips, want 2 and none", n, e.UpstreamRoundTrips()-trips)
	}
	if n := c.BytesReceived() - before; n > int64(len(payload)+len(payload)/8) {
		t.Errorf("two near-duplicates read from disk: %d bytes received, want about one payload of %d", n, len(payload))
	}
	for i, want := range []*media.Block{a, b} {
		if got[i] == nil || got[i].ID != want.ID || !bytes.Equal(got[i].Payload, want.Payload) {
			t.Errorf("%s came back as other bytes", names[i])
		}
	}
}
