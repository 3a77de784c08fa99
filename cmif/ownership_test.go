package cmif

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/codec"
)

// TestServedDocumentIsolation: the facade is where a caller's document
// crosses into a server, and the one place it is copied. Changing a
// Document after WithServedDocument or Server.Register changes nothing a
// client fetches.
func TestServedDocumentIsolation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	seeded, store, err := BuildNews(NewsConfig{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	registered := seeded.Clone()
	want, err := codec.EncodeBinary(seeded.doc)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(d *Document) {
		d.Root().SetName("mutated")
		d.Root().Children()[0].SetName("also-mutated")
	}
	opt := WithServedDocument("seeded", seeded)
	mutate(seeded) // before the server even exists
	srv := NewServer(WithServedStore(store), opt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register("registered", registered)
	mutate(registered)

	c, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"seeded", "registered"} {
		got, err := c.Document(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := codec.EncodeBinary(got.doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: a change made after registering reached the server", name)
		}
	}
	if names := srv.DocumentNames(); len(names) != 2 || names[0] != "registered" || names[1] != "seeded" {
		t.Errorf("DocumentNames = %v", names)
	}
}

// TestRestartHoldsEachDocumentOnce: a durable server restarted on its
// data directory, re-seeded with the same corpus, serves each document
// from one tree — the registry's; the log keeps only its bytes — and
// journals nothing again: the re-put of the seed is deduped against the
// bytes the log kept for it, whether the document was recovered only or
// recovered and re-seeded.
func TestRestartHoldsEachDocumentOnce(t *testing.T) {
	dir := t.TempDir()
	doc, store, err := BuildNews(NewsConfig{Stories: 2})
	if err != nil {
		t.Fatal(err)
	}
	seed := []ServeOption{WithDataDir(dir), WithServedStore(store), WithServedDocument("news", doc)}
	for run := 0; run < 3; run++ {
		srv := NewServer(seed...)
		if _, err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			srv.Register("extra", doc)
		}
		names := srv.DocumentNames()
		if len(names) != 2 {
			t.Fatalf("run %d: documents %v, want news and extra", run, names)
		}
		if n := srv.log.Stats().Records; run > 0 && n != 0 {
			t.Errorf("run %d: the re-seeded restart journaled %d records", run, n)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
