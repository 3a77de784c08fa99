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

// TestDedupeSavedCountsAtFirstManifest pins when
// cmif_bytes_saved_total{reason="dedupe"} moves: not when a duplicate
// enters the store, nor when a client fetches it, but when the first
// manifest request — a durable snapshot's — cuts it and its chunks land
// on ones already indexed, and only that once. The test of the same
// name in internal/cluster pins the same count on a cluster node.
func TestDedupeSavedCountsAtFirstManifest(t *testing.T) {
	t.Run("origin", func(t *testing.T) {
		reg := cmif.NewMetrics()
		srv := cmif.NewServer(cmif.WithDataDir(t.TempDir()), cmif.WithServerMetrics(reg))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		saved := reg.Counter("cmif_bytes_saved_total", "", "reason", "dedupe")

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rng := rand.New(rand.NewSource(23))
		base := make([]byte, 256<<10)
		rng.Read(base)
		edited := bytes.Clone(base)
		rng.Read(edited[100<<10 : 100<<10+128])
		payloads := [][]byte{base, edited}
		names := []string{"clip.en.vid", "clip.nl.vid"}

		// What the index will find shared once it cuts both: every chunk
		// whose hash an earlier chunk already carried.
		var want int64
		seen := make(map[media.ChunkHash]bool)
		for _, p := range payloads {
			for _, c := range chunker.Split(p, chunker.Config{}) {
				if h := chunker.Sum(c); seen[h] {
					want += int64(len(c))
				} else {
					seen[h] = true
				}
			}
		}
		if want == 0 {
			t.Fatal("the two payloads share no chunk; the test would prove nothing")
		}

		c, err := cmif.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i, p := range payloads {
			if _, err := c.PutBlock(ctx, media.NewBlock(names[i], cmif.MediumVideo, p, attr.List{})); err != nil {
				t.Fatalf("PutBlock %s: %v", names[i], err)
			}
		}
		if got := saved.Value(); got != 0 {
			t.Fatalf("dedupe counter = %d after two PutBlocks, want 0: nobody asked for a manifest", got)
		}
		for i, name := range names {
			b, err := c.Block(ctx, name)
			if err != nil {
				t.Fatalf("Block %s: %v", name, err)
			}
			if !bytes.Equal(b.Payload, payloads[i]) {
				t.Fatalf("%s: fetched payload differs", name)
			}
		}
		if got := saved.Value(); got != 0 {
			t.Fatalf("dedupe counter = %d after two fetches, want 0: a fetch cuts nothing", got)
		}
		if err := srv.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := saved.Value(); got != want {
			t.Fatalf("dedupe counter = %d after the first snapshot, want %d", got, want)
		}
		if err := srv.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := saved.Value(); got != want {
			t.Fatalf("dedupe counter moved to %d on a second snapshot, want it to stay %d", got, want)
		}
	})
}
