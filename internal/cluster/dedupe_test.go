package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestDedupeSavedCountsAtFirstManifest pins when a cluster node's
// cmif_bytes_saved_total{reason="dedupe"} moves, as the cmif test of the
// same name does for an origin: not when a duplicate is written or
// fetched, but when the node's first snapshot cuts it and its chunks
// land on ones already indexed, and only that once.
func TestDedupeSavedCountsAtFirstManifest(t *testing.T) {
	reg := metrics.NewRegistry()
	n, err := Start(Config{
		Addr:          "127.0.0.1:0",
		DataDir:       t.TempDir(),
		SnapshotBytes: -1, // only the test's own snapshots cut
		Serve:         transport.ServeConfig{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Kill)
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

	c, err := transport.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, p := range payloads {
		if _, err := c.PutBlock(ctx, media.NewBlock(names[i], core.MediumVideo, p, attr.List{})); err != nil {
			t.Fatalf("PutBlock %s: %v", names[i], err)
		}
	}
	blocks, err := c.GetBlocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if b == nil || !bytes.Equal(b.Payload, payloads[i]) {
			t.Fatalf("%s: fetched payload differs", names[i])
		}
	}
	if got := saved.Value(); got != 0 {
		t.Fatalf("dedupe counter = %d after two puts and fetches, want 0: nobody asked for a manifest", got)
	}
	for _, snap := range []string{"first", "second"} {
		if err := n.log.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := saved.Value(); got != want {
			t.Fatalf("dedupe counter = %d after the %s snapshot, want %d", got, snap, want)
		}
	}
}
