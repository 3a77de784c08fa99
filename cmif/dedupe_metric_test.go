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
	"repro/internal/metrics"
)

// TestDedupeSavedCountsAtFirstManifest pins when
// cmif_bytes_saved_total{reason="dedupe"} moves: not when a duplicate
// enters the store, but when the first manifest request cuts it and its
// chunks land on ones already indexed — and only that once. An origin
// and a cluster node given the same metrics option count alike.
func TestDedupeSavedCountsAtFirstManifest(t *testing.T) {
	tiers := []struct {
		name  string
		start func(t *testing.T, reg *cmif.Metrics) string
	}{
		{"origin", func(t *testing.T, reg *cmif.Metrics) string {
			srv := cmif.NewServer(cmif.WithServerMetrics(reg))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			t.Cleanup(func() { srv.Close() })
			return addr
		}},
		{"cluster node", func(t *testing.T, reg *cmif.Metrics) string {
			node, err := cmif.JoinCluster(cmif.WithDataDir(t.TempDir()), cmif.WithServerMetrics(reg))
			if err != nil {
				t.Fatalf("JoinCluster: %v", err)
			}
			t.Cleanup(func() { node.Close() })
			return node.Addr()
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			reg := cmif.NewMetrics()
			checkDedupeSaved(t, tier.start(t, reg), reg.Counter("cmif_bytes_saved_total", "", "reason", "dedupe"))
		})
	}
}

// checkDedupeSaved puts two near-duplicate blocks through the server at
// addr, fetches them twice over the manifest path, and checks saved
// moves by exactly the shared bytes, at the first fetch only.
func checkDedupeSaved(t *testing.T, addr string, saved *metrics.Counter) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	rng := rand.New(rand.NewSource(23))
	base := make([]byte, 256<<10)
	rng.Read(base)
	edited := bytes.Clone(base)
	rng.Read(edited[100<<10 : 100<<10+128])
	payloads := [][]byte{base, edited}
	names := []string{"clip.en.vid", "clip.nl.vid"}

	// What the index will find shared once it cuts both, in fetch order:
	// every chunk whose hash an earlier chunk already carried.
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

	c, err := cmif.Dial(ctx, addr, cmif.WithChunkCache(0))
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

	fetchBoth := func() {
		t.Helper()
		for i, name := range names {
			b, err := c.Block(ctx, name)
			if err != nil {
				t.Fatalf("Block %s: %v", name, err)
			}
			if !bytes.Equal(b.Payload, payloads[i]) {
				t.Fatalf("%s: fetched payload differs", name)
			}
		}
	}
	fetchBoth()
	if stats, ok := c.ChunkCacheStats(); !ok || stats.Hits == 0 {
		t.Fatalf("fetches did not take the manifest path (stats %+v, ok=%v)", stats, ok)
	}
	if got := saved.Value(); got != want {
		t.Fatalf("dedupe counter = %d after the first manifest fetches, want %d", got, want)
	}
	fetchBoth()
	if got := saved.Value(); got != want {
		t.Fatalf("dedupe counter moved to %d on a re-fetch, want it to stay %d", got, want)
	}
}
