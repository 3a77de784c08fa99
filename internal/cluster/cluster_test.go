package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/edit"
	"repro/internal/media"
	"repro/internal/transport"
	"repro/internal/units"
)

// testDoc builds a small document whose label distinguishes versions.
func testDoc(t testing.TB, label string) *core.Document {
	t.Helper()
	root := core.NewPar().SetName("doc")
	root.Add(
		core.NewImm([]byte(label)).SetName("label").
			SetAttr("channel", attr.ID("labels")).
			SetAttr("duration", attr.Quantity(units.MS(100))),
	)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "labels", Medium: core.MediumText})
	d.SetChannels(cd)
	return d
}

func docLabel(d *core.Document) string {
	return string(d.Root.FindByName("label").Data)
}

// startNode starts one node on dir, seeded with peers.
func startNode(t *testing.T, dir string, peers []string, replication int) *Node {
	t.Helper()
	n, err := Start(Config{
		Addr:           "127.0.0.1:0",
		DataDir:        dir,
		Peers:          peers,
		Replication:    replication,
		GossipInterval: 20 * time.Millisecond,
		SuspectAfter:   300 * time.Millisecond,
		PeerTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Kill)
	return n
}

// startCluster starts nNodes nodes, each seeded with the earlier ones,
// and waits for full membership convergence and resync.
func startCluster(t *testing.T, nNodes, replication int) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, nNodes)
	var peers []string
	for i := 0; i < nNodes; i++ {
		n := startNode(t, t.TempDir(), append([]string(nil), peers...), replication)
		nodes = append(nodes, n)
		peers = append(peers, n.Addr())
	}
	waitAlive(t, nodes, nNodes)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range nodes {
		if err := n.WaitSynced(ctx); err != nil {
			t.Fatalf("node %s never synced: %v", n.Addr(), err)
		}
	}
	return nodes
}

// waitAlive waits until every node counts want alive members.
func waitAlive(t *testing.T, nodes []*Node, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, n := range nodes {
			alive := 0
			for _, m := range n.Members() {
				if m.State == StateAlive {
					alive++
				}
			}
			if alive != want {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("node %s: %v", n.Addr(), n.Members())
			}
			t.Fatalf("membership never converged on %d alive", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func dialNode(t *testing.T, addr string) *transport.Client {
	t.Helper()
	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustGetLabel(t *testing.T, c *transport.Client, name, want string) {
	t.Helper()
	d, err := c.GetDoc(context.Background(), name, transport.GetDocOptions{Encoding: transport.EncodingBinary})
	if err != nil {
		t.Fatalf("get %q: %v", name, err)
	}
	if got := docLabel(d); got != want {
		t.Fatalf("doc %q label = %q, want %q", name, got, want)
	}
}

// TestClusterReplicatesWrites: with replication == cluster size, a write
// acknowledged by any node is locally readable on every node.
func TestClusterReplicatesWrites(t *testing.T) {
	nodes := startCluster(t, 3, 3)
	ctx := context.Background()
	c0 := dialNode(t, nodes[0].Addr())

	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("doc-%d", i)
		if err := c0.PutDoc(ctx, name, testDoc(t, name+"-v1"), transport.EncodingBinary); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}
	blk := media.CaptureAudio("voice.aud", 50, 8000, 440, 1)
	if _, err := c0.PutBlock(ctx, blk); err != nil {
		t.Fatalf("put block: %v", err)
	}

	// Replication is synchronous: by the time the put is acknowledged,
	// every replica's local state holds it.
	for _, n := range nodes {
		c := dialNode(t, n.Addr())
		names, err := c.ListDocsLocal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 6 {
			t.Fatalf("node %s holds %d docs locally, want 6", n.Addr(), len(names))
		}
		mustGetLabel(t, c, "doc-3", "doc-3-v1")
		if _, err := c.GetBlock(ctx, "voice.aud"); err != nil {
			t.Fatalf("node %s: get block: %v", n.Addr(), err)
		}
	}
}

// TestClusterShardsAndProxies: with replication 1 the corpus shards
// across nodes, yet every node answers every read (miss proxy) and lists
// the whole corpus (merged listing).
func TestClusterShardsAndProxies(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	ctx := context.Background()
	c0 := dialNode(t, nodes[0].Addr())

	const docs = 24
	for i := 0; i < docs; i++ {
		name := fmt.Sprintf("doc-%d", i)
		if err := c0.PutDoc(ctx, name, testDoc(t, name), transport.EncodingBinary); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}

	// Each document lives on exactly one node.
	total := 0
	for _, n := range nodes {
		c := dialNode(t, n.Addr())
		names, err := c.ListDocsLocal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) == docs {
			t.Fatalf("node %s holds the whole corpus; expected sharding", n.Addr())
		}
		total += len(names)
	}
	if total != docs {
		t.Fatalf("local listings sum to %d docs, want %d", total, docs)
	}

	// Any node serves any document and lists the whole corpus.
	for _, n := range nodes {
		c := dialNode(t, n.Addr())
		names, err := c.ListDocs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != docs {
			t.Fatalf("node %s merged listing has %d docs, want %d", n.Addr(), len(names), docs)
		}
		for i := 0; i < docs; i++ {
			name := fmt.Sprintf("doc-%d", i)
			mustGetLabel(t, c, name, name)
		}
	}
}

// TestClusterWriteForwarding: a write sent to a non-primary lands at the
// key's primary (replication 1 makes placement observable).
func TestClusterWriteForwarding(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	ctx := context.Background()

	// Every node accepts writes for every key, wherever it lands.
	for i, n := range nodes {
		c := dialNode(t, n.Addr())
		name := fmt.Sprintf("via-%d", i)
		if err := c.PutDoc(ctx, name, testDoc(t, name), transport.EncodingBinary); err != nil {
			t.Fatalf("put via node %d: %v", i, err)
		}
	}
	ring := nodes[0].ring()
	for i := range nodes {
		name := fmt.Sprintf("via-%d", i)
		primary := ring.Primary(DocKey(name))
		var owner *Node
		for _, n := range nodes {
			if n.Addr() == primary {
				owner = n
			}
		}
		if owner == nil {
			t.Fatalf("no node matches primary %s", primary)
		}
		if _, ok := owner.Registry.GetDoc(name); !ok {
			t.Fatalf("doc %q not at its primary %s", name, primary)
		}
	}
}

// TestClusterEditsForwardToPrimary: edits submitted anywhere apply at the
// primary and replicate to every copy.
func TestClusterEditsForwardToPrimary(t *testing.T) {
	nodes := startCluster(t, 3, 3)
	ctx := context.Background()
	c0 := dialNode(t, nodes[0].Addr())
	if err := c0.PutDoc(ctx, "news", testDoc(t, "news-v1"), transport.EncodingBinary); err != nil {
		t.Fatal(err)
	}

	rec, err := edit.RecordSetAttr("/label", "duration", attr.Quantity(units.MS(250)))
	if err != nil {
		t.Fatal(err)
	}
	c2 := dialNode(t, nodes[2].Addr())
	if _, err := c2.SubmitEdit(ctx, "news", []core.ChangeRecord{rec}); err != nil {
		t.Fatalf("submit edit: %v", err)
	}

	for _, n := range nodes {
		d, ok := n.Registry.GetDoc("news")
		if !ok {
			t.Fatalf("node %s lost the doc", n.Addr())
		}
		v, ok := d.Doc().Root.FindByName("label").Attrs.Get("duration")
		if !ok || v.String() != attr.Quantity(units.MS(250)).String() {
			t.Fatalf("node %s: edit not applied (duration %v)", n.Addr(), v)
		}
	}

	// Editing an unknown document classifies as not-found through the
	// forwarded path too.
	if _, err := c2.SubmitEdit(ctx, "nope", []core.ChangeRecord{rec}); err == nil {
		t.Fatal("edit of unknown doc succeeded")
	} else if !isNotFound(err) {
		t.Fatalf("edit of unknown doc: %v, want not-found", err)
	}
}

func isNotFound(err error) bool {
	return errors.Is(err, transport.ErrNotFound)
}

// TestClusterSurvivesNodeLoss: killing a node mid-corpus neither loses
// acknowledged writes nor stops the cluster accepting reads and writes.
func TestClusterSurvivesNodeLoss(t *testing.T) {
	nodes := startCluster(t, 3, 3)
	ctx := context.Background()
	c0 := dialNode(t, nodes[0].Addr())

	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("pre-%d", i)
		if err := c0.PutDoc(ctx, name, testDoc(t, name), transport.EncodingBinary); err != nil {
			t.Fatal(err)
		}
	}

	nodes[1].Kill()

	// Writes keep succeeding: keys whose primary died fail over once the
	// survivors condemn it (first forwarding attempt supplies the direct
	// evidence, so no wait is needed).
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("post-%d", i)
		if err := c0.PutDoc(ctx, name, testDoc(t, name), transport.EncodingBinary); err != nil {
			t.Fatalf("put %q after node loss: %v", name, err)
		}
	}

	// Every acknowledged write is readable from both survivors.
	for _, n := range []*Node{nodes[0], nodes[2]} {
		c := dialNode(t, n.Addr())
		for i := 0; i < 8; i++ {
			mustGetLabel(t, c, fmt.Sprintf("pre-%d", i), fmt.Sprintf("pre-%d", i))
			mustGetLabel(t, c, fmt.Sprintf("post-%d", i), fmt.Sprintf("post-%d", i))
		}
	}
	waitAlive(t, []*Node{nodes[0], nodes[2]}, 2)
}

// TestClusterRejoinResyncs: a node that was down while writes flowed
// catches up from a peer on rejoin — recovery replays its own WAL, resync
// fills in what it missed.
func TestClusterRejoinResyncs(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	var nodes []*Node
	var peers []string
	for i := 0; i < 3; i++ {
		n := startNode(t, dirs[i], append([]string(nil), peers...), 3)
		nodes = append(nodes, n)
		peers = append(peers, n.Addr())
	}
	waitAlive(t, nodes, 3)
	ctx := context.Background()
	c0 := dialNode(t, nodes[0].Addr())

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("old-%d", i)
		if err := c0.PutDoc(ctx, name, testDoc(t, name+"-v1"), transport.EncodingBinary); err != nil {
			t.Fatal(err)
		}
	}

	nodes[2].Kill()

	// Writes the downed node misses: new documents, an update to an old
	// one, and a block.
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("new-%d", i)
		if err := c0.PutDoc(ctx, name, testDoc(t, name), transport.EncodingBinary); err != nil {
			t.Fatal(err)
		}
	}
	if err := c0.PutDoc(ctx, "old-0", testDoc(t, "old-0-v2"), transport.EncodingBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.PutBlock(ctx, media.CaptureAudio("late.aud", 50, 8000, 220, 1)); err != nil {
		t.Fatal(err)
	}

	// Rejoin on the same directory (fresh port — a new identity whose
	// state catches up from the survivors).
	rejoined := startNode(t, dirs[2], []string{nodes[0].Addr(), nodes[1].Addr()}, 3)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rejoined.WaitSynced(wctx); err != nil {
		t.Fatalf("rejoined node never synced: %v", err)
	}

	// Everything — pre-outage, missed, and updated — is local now.
	c := dialNode(t, rejoined.Addr())
	names, err := c.ListDocsLocal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 10 {
		t.Fatalf("rejoined node holds %d docs, want 10 (%v)", len(names), names)
	}
	mustGetLabel(t, c, "old-0", "old-0-v2")
	mustGetLabel(t, c, "new-3", "new-3")
	if _, err := c.GetBlock(ctx, "late.aud"); err != nil {
		t.Fatalf("rejoined node: get block: %v", err)
	}

	// And the rejoined node survives a restart on its own WAL alone.
	rejoined.Kill()
	again := startNode(t, dirs[2], nil, 3)
	if _, ok := again.Registry.GetDoc("new-3"); !ok {
		t.Fatal("resynced state did not survive recovery")
	}
}

// TestClusterPutDecodesOnce: a put applied on a node — by its primary's
// commit or by Replicate on the other replica — is decoded once: the
// registry serves the document the log's verify step decoded, so a
// replicated put of a wide document allocates less than two decodes.
func TestClusterPutDecodesOnce(t *testing.T) {
	nodes := startCluster(t, 2, 2)
	ctx := context.Background()
	c0 := dialNode(t, nodes[0].Addr())
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("doc-%d", i)
		if err := c0.PutDoc(ctx, name, testDoc(t, name), transport.EncodingBinary); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}
	for _, n := range nodes {
		if got := len(n.DocNames()); got != 4 {
			t.Fatalf("node %s holds %d documents, want 4", n.Addr(), got)
		}
	}

	var frames [2][]byte
	for v := range frames {
		d := testDoc(t, fmt.Sprintf("wide-%d", v))
		for i := 0; i < 200; i++ {
			d.Root.Add(core.NewImm([]byte(fmt.Sprint(i))).SetName(fmt.Sprintf("n-%d", i)).
				SetAttr("channel", attr.ID("labels")))
		}
		data, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		frames[v] = durable.FramePutDoc("wide", data)
	}
	recs, err := durable.DecodeFrames(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(10, func() { _, _ = codec.DecodeBinary(recs[0].Fields[1]) })
	n, v := nodes[1], 0
	apply := testing.AllocsPerRun(10, func() {
		v ^= 1 // alternate versions, so no put is deduped
		if err := n.Replicate(frames[v]); err != nil {
			t.Fatal(err)
		}
	})
	if apply >= 1.5*decode {
		t.Errorf("a replicated put allocates %v objects, one decode %v: it was decoded twice", apply, decode)
	}
}

// TestResyncDropsStaleCopiesOfHeldRecords: while a resync is in flight,
// a replicated batch marks every record's key touched — also records the
// state already holds, which append nothing — so the resync's stale
// copies of those keys are dropped instead of regressing them.
func TestResyncDropsStaleCopiesOfHeldRecords(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	src := startNode(t, t.TempDir(), nil, 1)
	dst := startNode(t, t.TempDir(), nil, 1)
	for _, n := range []*Node{src, dst} {
		if err := n.WaitSynced(ctx); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(label string) []byte {
		data, err := codec.EncodeBinary(testDoc(t, label))
		if err != nil {
			t.Fatal(err)
		}
		b := media.CaptureText("clip.txt", label, "en")
		frame, err := durable.FramePutBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		frames := append(durable.FramePutDoc("news", data), frame...)
		return append(frames, durable.FrameRegisterName("clip.txt", b.ID)...)
	}
	// The resync source holds the old version; the target already holds
	// the new one when its resync starts.
	if err := src.applyFrames(batch("old"), true); err != nil {
		t.Fatal(err)
	}
	fresh := batch("new")
	if err := dst.applyFrames(fresh, true); err != nil {
		t.Fatal(err)
	}
	dst.applyMu.Lock()
	dst.touched = make(map[string]bool)
	dst.applyMu.Unlock()
	// The new version is replicated again mid-resync: every record is
	// already held, so nothing appends — but every key is still touched.
	records := dst.DurableStats().Records
	if err := dst.Replicate(fresh); err != nil {
		t.Fatal(err)
	}
	if got := dst.DurableStats().Records; got != records {
		t.Fatalf("re-replicated batch appended %d records, want 0", got-records)
	}
	if !dst.resyncFrom(src.Addr()) {
		t.Fatal("resync did not complete")
	}
	e, ok := dst.Registry.GetDoc("news")
	if !ok || docLabel(e.Doc()) != "new" {
		t.Fatalf("resync regressed the document (found %v)", ok)
	}
	b, ok := dst.Registry.GetBlock("clip.txt")
	if !ok || string(b.Payload) != "new" {
		t.Fatalf("resync regressed the name registration (found %v)", ok)
	}
}

// TestGenesisNodeSyncsAtOnce: a node started without peers has nobody to
// resync from, so WaitSynced returns within one gossip interval instead
// of after the rounds a node spends waiting for an unreachable peer.
func TestGenesisNodeSyncsAtOnce(t *testing.T) {
	n, err := Start(Config{Addr: "127.0.0.1:0", DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Kill)
	ctx, cancel := context.WithTimeout(context.Background(), DefaultGossipInterval)
	defer cancel()
	if err := n.WaitSynced(ctx); err != nil {
		t.Fatalf("one-node WaitSynced: %v", err)
	}
}
