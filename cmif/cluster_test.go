package cmif_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/cmif"
)

// startClusterNodes brings up n in-process cluster nodes and waits for
// them to converge and sync.
func startClusterNodes(t *testing.T, n int, extra ...cmif.JoinOption) []*cmif.ClusterNode {
	t.Helper()
	nodes := make([]*cmif.ClusterNode, 0, n)
	var peers []string
	for i := 0; i < n; i++ {
		opts := []cmif.JoinOption{
			cmif.WithDataDir(t.TempDir()),
			cmif.WithClusterPeers(peers...),
			cmif.WithGossipInterval(20 * time.Millisecond),
		}
		opts = append(opts, extra...)
		node, err := cmif.JoinCluster(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
		peers = append(peers, node.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, node := range nodes {
		if err := node.WaitSynced(ctx); err != nil {
			t.Fatalf("node %s never synced: %v", node.Addr(), err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, m := range nodes[0].Members() {
			alive++
			_ = m
		}
		if alive >= n {
			return nodes
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership converged on %d of %d", alive, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterFacadeEndToEnd drives the whole facade surface — writes,
// reads, batched fetches, prefetch, listing — through a ClusterClient
// against three nodes.
func TestClusterFacadeEndToEnd(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	ctx := context.Background()

	cc, err := cmif.DialCluster(ctx, []string{nodes[0].Addr()},
		cmif.WithClusterRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	if got := len(cc.Members()); got != 3 {
		t.Fatalf("client sees %d members, want 3", got)
	}

	// The corpus: the quickstart document plus its image blocks.
	doc := buildDoc(t)
	if err := cc.Put(ctx, "show", doc); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"intro.img", "closing.img"} {
		if _, err := cc.PutBlock(ctx, cmif.CaptureImage(name, 8, 6, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	got, err := cc.OpenDoc(ctx, "show")
	if err != nil {
		t.Fatal(err)
	}
	if got.FindByName("caption") == nil {
		t.Fatal("fetched document lost its caption")
	}
	if _, err := cc.OpenDoc(ctx, "missing"); !errors.Is(err, cmif.ErrNotFound) {
		t.Fatalf("missing doc: %v, want ErrNotFound", err)
	}

	blocks, err := cc.Blocks(ctx, []string{"intro.img", "nope.img", "closing.img"})
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0] == nil || blocks[1] != nil || blocks[2] == nil {
		t.Fatalf("batched fetch resolved wrong set: %v", blocks)
	}
	descs, err := cc.Descriptors(ctx, []string{"intro.img"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := descs["intro.img"]; !ok {
		t.Fatal("descriptor fetch missed intro.img")
	}

	store, err := cc.Prefetch(ctx, got)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("prefetch stored %d blocks, want 2", store.Len())
	}

	names, err := cc.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "show" {
		t.Fatalf("listing = %v", names)
	}
}

// TestClusterClientFailsOver: the client keeps serving when the node it
// was talking to dies — remaining replicas answer, and writes keep
// landing.
func TestClusterClientFailsOver(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	ctx := context.Background()

	// Seed only with node 1 so the client's first conversations ride it.
	cc, err := cmif.DialCluster(ctx, []string{nodes[1].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	for i := 0; i < 4; i++ {
		if err := cc.Put(ctx, fmt.Sprintf("pre-%d", i), buildDoc(t)); err != nil {
			t.Fatal(err)
		}
	}

	nodes[1].Close()

	// Reads and writes keep succeeding against the survivors.
	for i := 0; i < 4; i++ {
		if _, err := cc.OpenDoc(ctx, fmt.Sprintf("pre-%d", i)); err != nil {
			t.Fatalf("read after node loss: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := cc.Put(ctx, fmt.Sprintf("post-%d", i), buildDoc(t)); err != nil {
			t.Fatalf("write after node loss: %v", err)
		}
	}
	names, err := cc.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 8 {
		t.Fatalf("listing after failover has %d docs, want 8", len(names))
	}
}

// TestClusterLiveDocuments: subscriptions and edits work through the
// cluster client — an edit submitted anywhere reaches the subscriber.
func TestClusterLiveDocuments(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	ctx := context.Background()

	cc, err := cmif.DialCluster(ctx, []string{nodes[2].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	if err := cc.Put(ctx, "show", buildDoc(t)); err != nil {
		t.Fatal(err)
	}

	sub, err := cc.Subscribe(ctx, "show")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	batch := cmif.NewEditBatch().SetAttr("/caption", "duration", cmif.Qty(cmif.Sec(9)))
	gen, err := cc.SubmitEdit(ctx, "show", batch)
	if err != nil {
		t.Fatalf("submit edit: %v", err)
	}
	if gen == 0 {
		t.Fatal("edit returned generation 0")
	}

	nctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := sub.Next(nctx); err != nil {
		t.Fatalf("subscriber never saw the edit: %v", err)
	}
	v, ok := sub.Document().FindByName("caption").Attrs.Get("duration")
	if !ok || v.String() != cmif.Qty(cmif.Sec(9)).String() {
		t.Fatalf("replica duration = %v", v)
	}

	// A conflicting batch still classifies as ErrConflict through the
	// forwarded path.
	stale := cmif.NewEditBatch().Delete("/nonexistent")
	if _, err := cc.SubmitEdit(ctx, "show", stale); !errors.Is(err, cmif.ErrConflict) {
		t.Fatalf("conflicting edit: %v, want ErrConflict", err)
	}
}

// TestPlainClientAgainstCluster: a plain Client pointed at any single
// node sees the whole cluster — the acceptance shape for cmifget and the
// edge daemon running unmodified.
func TestPlainClientAgainstCluster(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	ctx := context.Background()

	writer, err := cmif.Dial(ctx, nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.Put(ctx, "show", buildDoc(t)); err != nil {
		t.Fatal(err)
	}

	// Read through a different node with a plain client.
	reader, err := cmif.Dial(ctx, nodes[2].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if _, err := reader.OpenDoc(ctx, "show"); err != nil {
		t.Fatal(err)
	}
	names, err := reader.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("plain client listing = %v", names)
	}

	// An edge cache reads through a cluster node like any origin.
	edge, err := cmif.NewEdge(cmif.WithOrigin(nodes[1].Addr()), cmif.WithCacheDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	if _, err := edge.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.OpenDoc(ctx, "show"); err != nil {
		t.Fatalf("edge against cluster: %v", err)
	}
}
