package cmif_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/cmif"
)

// startDurable builds and listens a durable server on dir.
func startDurable(t *testing.T, dir string, opts ...cmif.ServeOption) (*cmif.Server, string) {
	t.Helper()
	srv := cmif.NewServer(append([]cmif.ServeOption{cmif.WithDataDir(dir)}, opts...)...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return srv, addr
}

func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 2})
	if err != nil {
		t.Fatal(err)
	}
	seed := []cmif.ServeOption{
		cmif.WithServedStore(store),
		cmif.WithServedDocument("news", doc),
	}

	srv1, addr := startDurable(t, dir, seed...)
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	extra := cmif.CaptureText("extra.txt", "added over the wire", "en")
	if _, err := c.PutBlock(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "editorial", buildDoc(t)); err != nil {
		t.Fatal(err)
	}
	wantBlocks := srv1.Store().Len()
	c.Close()
	shutdownCtx, sc := context.WithTimeout(context.Background(), 5*time.Second)
	defer sc()
	if err := srv1.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Restart with the SAME seed options: the corpus must come back
	// exactly, and re-seeding recovered content must journal nothing.
	srv2, addr2 := startDurable(t, dir, seed...)
	defer srv2.Close()
	if got := srv2.Store().Len(); got != wantBlocks {
		t.Fatalf("restart recovered %d blocks, want %d", got, wantBlocks)
	}
	names := srv2.DocumentNames()
	if len(names) != 2 || names[0] != "editorial" || names[1] != "news" {
		t.Fatalf("restart recovered documents %v, want [editorial news]", names)
	}
	stats, ok := srv2.DurableStats()
	if !ok {
		t.Fatal("durable server reports no stats")
	}
	if stats.Records != 0 {
		t.Fatalf("re-seeding an already-recovered corpus journaled %d records", stats.Records)
	}
	if _, ok := srv2.Store().GetByName("extra.txt"); !ok {
		t.Fatal("wire-ingested block lost across restart")
	}

	c2, err := cmif.Dial(ctx, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Document(ctx, "editorial"); err != nil {
		t.Fatalf("restarted server cannot serve recovered document: %v", err)
	}

	// Snapshot, restart once more: still the same corpus, now from the
	// snapshot instead of a long WAL.
	if err := srv2.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv3, _ := startDurable(t, dir)
	defer srv3.Close()
	if got := srv3.Store().Len(); got != wantBlocks {
		t.Fatalf("post-snapshot restart recovered %d blocks, want %d", got, wantBlocks)
	}
}

func TestPipelineFromDataDir(t *testing.T) {
	dir := t.TempDir()
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := startDurable(t, dir, cmif.WithServedStore(store), cmif.WithServedDocument("news", doc))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The recovered store holds every block the document references...
	recovered, docs, err := cmif.LoadDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := docs["news"]; !ok {
		t.Fatal("LoadDataDir lost the registered document")
	}
	for _, file := range doc.ExternalFiles() {
		if _, ok := recovered.GetByName(file); !ok {
			t.Fatalf("recovered store missing external file %q", file)
		}
	}

	// ...and backs a pipeline run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := cmif.RunPipeline(ctx, doc,
		cmif.WithStore(recovered),
		cmif.WithScreen(cmif.Screen{W: 1152, H: 900}),
		cmif.WithSpeakers(2),
	)
	if err != nil {
		t.Fatalf("pipeline over recovered store: %v", err)
	}
	if out.Schedule == nil {
		t.Fatal("pipeline over recovered store produced no schedule")
	}
}

// TestRestartServesTheEditedBytes: an origin edits its registered tree in
// place and its log edits a copy of its own; restarted, it serves exactly
// the bytes it served before, with the edits replayed from a snapshot and
// from the WAL after it.
func TestRestartServesTheEditedBytes(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv1, addr := startDurable(t, dir)
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "live", buildDoc(t)); err != nil {
		t.Fatal(err)
	}
	// The snapshot falls between an insert and the delete of the node it
	// inserted, and the last batch is an insert: neither half of the
	// history nets out.
	for i := 0; i < 32; i++ {
		if i == 17 {
			if err := srv1.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.SubmitEdit(ctx, "live", crashEditBatch(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	served := func(c *cmif.Client) []byte {
		t.Helper()
		d, err := c.Document(ctx, "live")
		if err != nil {
			t.Fatal(err)
		}
		data, err := cmif.Encode(d, cmif.WithFormat(cmif.FormatBinary))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := served(c)
	c.Close()
	shutdownCtx, sc := context.WithTimeout(context.Background(), 5*time.Second)
	defer sc()
	if err := srv1.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	srv2, addr2 := startDurable(t, dir)
	defer srv2.Close()
	c2, err := cmif.Dial(ctx, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !bytes.Equal(served(c2), before) {
		t.Fatal("the restarted origin serves other bytes than it served before")
	}
}
