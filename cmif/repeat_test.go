package cmif_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/cmif"
	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/media"
)

// TestRepeatedContentTravelsOnce: a document naming two files with
// equal bytes costs one payload on the wire, and PrefetchVia's store
// serves both names with one content address.
func TestRepeatedContentTravelsOnce(t *testing.T) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(58)).Read(payload) // incompressible
	store := cmif.NewStore()
	for _, name := range []string{"intro.img", "closing.img"} {
		store.Put(media.NewBlock(name, cmif.MediumImage, payload, attr.List{}))
	}
	srv := cmif.NewServer(cmif.WithServedStore(store), cmif.WithServedDocument("slides", buildDoc(t)))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	doc, err := c.OpenDoc(ctx, "slides")
	if err != nil {
		t.Fatal(err)
	}
	before := c.BytesReceived()
	got, err := cmif.PrefetchVia(ctx, c, doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.BytesReceived() - before; n < int64(len(payload)) || n > int64(len(payload))+1<<10 {
		t.Errorf("fetching two names for one %d-byte payload received %d bytes, want one payload", len(payload), n)
	}
	intro, ok1 := got.Resolve("intro.img")
	closing, ok2 := got.Resolve("closing.img")
	if !ok1 || !ok2 || intro != closing || got.Len() != 1 {
		t.Fatalf("prefetched store: %.12s (%v) and %.12s (%v), %d blocks; want both names on one address",
			intro, ok1, closing, ok2, got.Len())
	}
	if intro != media.ContentAddress(cmif.MediumImage, payload) {
		t.Errorf("the shared address %.12s is not the payload's", intro)
	}
}

// TestSharedChunksTravelOnce: a document naming two near-duplicate
// files — the second the first with a few bytes rewritten — costs the
// wire their distinct chunks and some framing, not two payloads, and
// PrefetchVia's store serves both byte for byte under their own
// addresses.
func TestSharedChunksTravelOnce(t *testing.T) {
	intro := make([]byte, 256<<10)
	rand.New(rand.NewSource(59)).Read(intro) // incompressible
	closing := bytes.Clone(intro)
	copy(closing[160<<10:], "the closing shot differs here")
	store := cmif.NewStore()
	for name, payload := range map[string][]byte{"intro.img": intro, "closing.img": closing} {
		store.Put(media.NewBlock(name, cmif.MediumImage, payload, attr.List{}))
	}
	unique := 0
	seen := map[media.ChunkHash]bool{}
	for _, payload := range [][]byte{intro, closing} {
		for _, c := range chunker.Cuts(payload) {
			if !seen[c.Hash] {
				seen[c.Hash] = true
				unique += c.Len
			}
		}
	}
	if unique > len(intro)+len(intro)/4 {
		t.Fatalf("the two payloads share only %d of %d bytes; the test would prove nothing", 2*len(intro)-unique, len(intro))
	}
	srv := cmif.NewServer(cmif.WithServedStore(store), cmif.WithServedDocument("slides", buildDoc(t)))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	doc, err := c.OpenDoc(ctx, "slides")
	if err != nil {
		t.Fatal(err)
	}
	before := c.BytesReceived()
	got, err := cmif.PrefetchVia(ctx, c, doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.BytesReceived() - before; n < int64(unique) || n > int64(unique)+1<<10 {
		t.Errorf("fetching two near-duplicates with %d distinct chunk bytes received %d bytes, want those and framing", unique, n)
	}
	for name, payload := range map[string][]byte{"intro.img": intro, "closing.img": closing} {
		b, ok := got.GetByName(name)
		if !ok || !bytes.Equal(b.Payload, payload) || b.ID != media.ContentAddress(cmif.MediumImage, payload) {
			t.Errorf("%s: fetched other bytes, or under another address", name)
		}
	}
}
