package edge

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/units"
)

// TestEdgeMemoryHitAllocatesNothing: a block resident in the memory tier
// is answered without building the upstream timeout context — no
// allocation at all — and still counts as an answered fetch.
func TestEdgeMemoryHitAllocatesNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	e := &Edge{
		mem:     newBlockCache(8, reg),
		met:     newEdgeMetrics(reg),
		baseCtx: context.Background(),
	}
	b := media.NewBlock("hot.txt", core.MediumText, []byte("a hot block"), attr.List{})
	e.mem.add(b.Name, b)
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		if got, ok := e.GetBlock(b.Name); !ok || got != b {
			t.Fatalf("the memory-resident block was not served (ok=%v)", ok)
		}
	})
	if allocs != 0 {
		t.Errorf("a memory hit allocates %.1f times, want 0", allocs)
	}
	// AllocsPerRun calls the function once more to warm up.
	if hits := e.met.blockHits.Value(); hits != runs+1 {
		t.Errorf("cmif_edge_block_hits_total = %d after %d memory hits", hits, runs+1)
	}
	if st := e.mem.stats(); st.Hits != runs+1 || st.Misses != 0 {
		t.Errorf("memory tier counted %+v, want %d hits and no miss", st, runs+1)
	}
}

// TestGetDocNeverServesStale: after a document is re-registered with
// putdoc, and after an edit is submitted, getdoc returns the new
// document in both encodings — the binary a client asks for by default
// and the text an earlier client asks for — at the origin at once and
// through a warmed edge once its lease has the change.
func TestGetDocNeverServesStale(t *testing.T) {
	ctx := context.Background()
	doc := func(name string) *core.Document {
		root := core.NewPar().SetName(name)
		root.Add(
			core.NewExt().SetName("intro").
				SetAttr("file", attr.String("anchor.vid")).
				SetAttr("duration", attr.Quantity(units.MS(500))),
			core.NewImm([]byte("Story 3")).SetName("label"),
		)
		d, err := core.NewDocument(root)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	bin := func(d *core.Document) []byte {
		t.Helper()
		data, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	reg := transport.NewRegistry(nil)
	reg.PutDoc("news", doc("v0"))
	origin := transport.NewServer(reg)
	originAddr, err := origin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	e, err := New(Config{Origin: originAddr, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr, err := e.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	dial := func(addr string) *transport.Client {
		c, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	oc, ec := dial(originAddr), dial(edgeAddr)
	if _, err := ec.GetDoc(ctx, "news", transport.GetDocOptions{}); err != nil {
		t.Fatal(err) // warms the edge: the document is leased
	}

	// serves reports whether c's getdoc answers want in both encodings.
	serves := func(c *transport.Client, want []byte) bool {
		t.Helper()
		for _, enc := range []transport.Encoding{transport.EncodingBinary, transport.EncodingText} {
			got, err := c.GetDoc(ctx, "news", transport.GetDocOptions{Encoding: enc})
			if err != nil {
				t.Fatalf("getdoc %c: %v", enc, err)
			}
			if !bytes.Equal(bin(got), want) {
				return false
			}
		}
		return true
	}
	check := func(step string, want []byte) {
		t.Helper()
		if !serves(oc, want) {
			t.Fatalf("%s: the origin's getdoc serves the document from before", step)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !serves(ec, want) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the edge's getdoc still serves the document from before", step)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	put := doc("v1")
	if err := oc.PutDoc(ctx, "news", put, 0); err != nil {
		t.Fatal(err)
	}
	check("putdoc", bin(put))

	rec, err := edit.RecordSetAttr("/intro", "duration", attr.Quantity(units.MS(900)))
	if err != nil {
		t.Fatal(err)
	}
	edited := put.Clone()
	if err := edit.Apply(edited, []core.ChangeRecord{rec}); err != nil {
		t.Fatal(err)
	}
	if _, err := oc.SubmitEdit(ctx, "news", []core.ChangeRecord{rec}); err != nil {
		t.Fatal(err)
	}
	check("submitedit", bin(edited))
}

// TestGenerationRule pins the rule origins, edges and subscribers of every
// release count generations by: a batch of k records moves a document
// from generation g to g + k + 1, at the origin and on an edge lease
// replica that follows it, whichever ops the batch holds; a wholesale put
// restarts the count at zero.
func TestGenerationRule(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	root := core.NewPar().SetName("news")
	root.Add(
		core.NewExt().SetName("intro").
			SetAttr("file", attr.String("anchor.vid")).
			SetAttr("duration", attr.Quantity(units.MS(500))),
		core.NewImm([]byte("Story 3")).SetName("label").
			SetAttr("duration", attr.Quantity(units.MS(800))),
		core.NewSeq().SetName("more"),
	)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry(nil)
	reg.PutDoc("news", d)
	origin := transport.NewServer(reg)
	originAddr, err := origin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	e, err := New(Config{Origin: originAddr, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr, err := e.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	oc, err := transport.Dial(originAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	ec, err := transport.Dial(edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	sub, err := ec.SubscribeDoc(ctx, "news") // leases the document at the edge
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Gen != 0 {
		t.Fatalf("a fresh registration is at generation %d through the edge, want 0", sub.Gen)
	}

	setDur := func(path string, ms int64) core.ChangeRecord {
		rec, err := edit.RecordSetAttr(path, "duration", attr.Quantity(units.MS(ms)))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	insert := func(name string) core.ChangeRecord {
		rec, err := edit.RecordInsert("/more", 0, core.NewImm([]byte(name)).SetName(name))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	var gen uint64
	for _, batch := range [][]core.ChangeRecord{
		{setDur("/intro", 600)},
		{setDur("/intro", 700), setDur("/label", 900)},
		{insert("a"), edit.RecordRename("/more/a", "b"), edit.RecordMove("/more/b", "/", 0)},
		{edit.RecordDelete("/b"), setDur("/label", 1000), insert("c"), edit.RecordRemoveArc("/label", 0)},
	} {
		want := gen + uint64(len(batch)) + 1
		got, err := oc.SubmitEdit(ctx, "news", batch)
		if len(batch) == 4 {
			// The last record fails: nothing applies, nothing advances.
			if err == nil {
				t.Fatal("a batch whose last record fails was accepted")
			}
			if g := reg.Generation("news"); g != gen {
				t.Fatalf("a refused batch moved the origin's generation %d -> %d", gen, g)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("a batch of %d records moved the origin from generation %d to %d, want %d", len(batch), gen, got, want)
		}
		ev, err := sub.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != transport.SubDelta || ev.FromGen != gen || ev.Gen != want {
			t.Fatalf("the edge delivered %+v, want a delta %d -> %d", ev, gen, want)
		}
		if g := e.Registry.Generation("news"); g != want {
			t.Fatalf("the edge replica is at generation %d, want %d", g, want)
		}
		gen = want
	}
	d2, err := core.NewDocument(core.NewPar().SetName("news"))
	if err != nil {
		t.Fatal(err)
	}
	reg.PutDoc("news", d2)
	if g := reg.Generation("news"); g != 0 {
		t.Fatalf("a wholesale put left the origin at generation %d, want 0", g)
	}
}
