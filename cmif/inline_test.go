package cmif_test

import (
	"bytes"
	"context"
	"testing"

	"repro/cmif"
)

// TestInlineFetchThroughEveryTier fetches one document WithInline from an
// origin, through an edge, and from every node of a 3-node cluster that
// keeps each key on a single node — so at least two of them own neither
// the document nor most of its blocks. The paper's infrastructure-free
// transport must not depend on what stands behind the server: every
// answer carries zero still-external nodes and is byte-equal (binary
// encoding) to the origin's.
func TestInlineFetchThroughEveryTier(t *testing.T) {
	ctx := context.Background()
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.ExternalFiles()) == 0 {
		t.Fatal("corpus has no external nodes to inline")
	}

	origin := cmif.NewServer(cmif.WithServedStore(store), cmif.WithServedDocument("news", doc))
	originAddr, err := origin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { origin.Close() })

	edge, err := cmif.NewEdge(cmif.WithOrigin(originAddr), cmif.WithCacheDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edge.Close() })
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	nodes := startClusterNodes(t, 3, cmif.WithReplicationFactor(1))
	inlined, err := cmif.Inline(doc, store, true)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := cmif.Dial(ctx, nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The self-contained form: the node extracts the payloads and routes
	// each block to its own owner.
	if err := seed.Put(ctx, "news", inlined); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	tiers := []struct{ name, addr string }{
		{"origin", originAddr},
		{"edge", edgeAddr},
		{"cluster node 0", nodes[0].Addr()},
		{"cluster node 1", nodes[1].Addr()},
		{"cluster node 2", nodes[2].Addr()},
	}
	var want []byte
	for _, tier := range tiers {
		c, err := cmif.Dial(ctx, tier.addr)
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		got, err := c.Document(ctx, "news", cmif.WithInline())
		c.Close()
		if err != nil {
			t.Fatalf("%s: inline fetch: %v", tier.name, err)
		}
		if ext := got.ExternalFiles(); len(ext) != 0 {
			t.Errorf("%s: %d of %d nodes still external after an inline fetch: %v",
				tier.name, len(ext), len(doc.ExternalFiles()), ext)
			continue
		}
		data, err := cmif.Encode(got, cmif.WithFormat(cmif.FormatBinary))
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		if want == nil {
			want = data
		} else if !bytes.Equal(data, want) {
			t.Errorf("%s: inlined document differs from the origin's (%d vs %d bytes)", tier.name, len(data), len(want))
		}
	}
}
