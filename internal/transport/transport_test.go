package transport

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/units"
)

// fixture: a two-leaf document plus its blocks. Takes testing.TB so the
// fuzz seed builders can reuse it from an *testing.F.
func fixture(t testing.TB) (*core.Document, *media.Store) {
	t.Helper()
	store := media.NewStore()
	store.Put(media.CaptureVideo("anchor.vid", 5, 16, 12, 25, 1))
	store.Put(media.CaptureAudio("voice.aud", 200, 8000, 440, 2))

	root := core.NewPar().SetName("news")
	root.Add(
		core.NewExt().SetName("intro").
			SetAttr("channel", attr.ID("video")).
			SetAttr("file", attr.String("anchor.vid")),
		core.NewExt().SetName("voice").
			SetAttr("channel", attr.ID("sound")).
			SetAttr("file", attr.String("voice.aud")),
		core.NewImm([]byte("Story 3")).SetName("label").
			SetAttr("channel", attr.ID("labels")),
	)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo, Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "sound", Medium: core.MediumAudio, Rates: units.Rates{SampleRate: 8000}})
	cd.Define(core.Channel{Name: "labels", Medium: core.MediumText})
	d.SetChannels(cd)
	return d, store
}

func startServer(t *testing.T, reg *Registry) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestInlineAndExtract(t *testing.T) {
	d, store := fixture(t)
	inlined, err := Inline(d, store.GetByName, true)
	if err != nil {
		t.Fatal(err)
	}
	// All ext nodes became imm carrying payloads.
	for _, leaf := range inlined.Root.Leaves() {
		if leaf.Type == core.Ext {
			t.Errorf("%s still external", leaf.PathString())
		}
	}
	intro := inlined.Root.FindByName("intro")
	orig, _ := store.GetByName("anchor.vid")
	if !bytes.Equal(intro.Data, orig.Payload) {
		t.Error("inlined payload mismatch")
	}
	// The original document is untouched.
	if d.Root.FindByName("intro").Type != core.Ext {
		t.Error("Inline mutated the original")
	}

	// Extract into a fresh store restores structure and data.
	store2 := media.NewStore()
	restored, err := Extract(inlined, store2)
	if err != nil {
		t.Fatal(err)
	}
	rIntro := restored.Root.FindByName("intro")
	if rIntro.Type != core.Ext {
		t.Errorf("restored intro type = %v", rIntro.Type)
	}
	if f, _ := restored.FileOf(rIntro); f != "anchor.vid" {
		t.Errorf("restored file = %q", f)
	}
	blk, ok := store2.GetByName("anchor.vid")
	if !ok || blk.ID != orig.ID {
		t.Error("extracted block mismatch")
	}
	// Descriptor survived the round trip.
	if blk.Frames() != orig.Frames() || blk.Width() != orig.Width() {
		t.Errorf("descriptor lost: %v vs %v", blk.Descriptor, orig.Descriptor)
	}
	// A plain imm node (the label) is left alone by Extract.
	if restored.Root.FindByName("label").Type != core.Imm {
		t.Error("label no longer immediate")
	}
}

func TestInlineStrictErrors(t *testing.T) {
	d, store := fixture(t)
	d.Root.AddChild(core.NewExt().SetName("ghost").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("missing.vid")))
	if _, err := Inline(d, store.GetByName, true); err == nil {
		t.Error("strict inline with missing block succeeded")
	}
	// Lenient mode leaves the node external.
	lenient, err := Inline(d, store.GetByName, false)
	if err != nil {
		t.Fatal(err)
	}
	if lenient.Root.FindByName("ghost").Type != core.Ext {
		t.Error("unresolvable node was converted anyway")
	}
}

func TestClientServerDocRoundTrip(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	addr, _ := startServer(t, reg)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, enc := range []Encoding{EncodingText, EncodingBinary} {
		got, err := c.GetDoc(context.Background(), "news", GetDocOptions{Encoding: enc})
		if err != nil {
			t.Fatalf("enc %c: %v", enc, err)
		}
		if got.Root.Name() != "news" || got.Root.Count() != d.Root.Count() {
			t.Errorf("enc %c: tree mismatch", enc)
		}
	}
	names, err := c.ListDocs(context.Background())
	if err != nil || len(names) != 1 || names[0] != "news" {
		t.Errorf("ListDocs = %v, %v", names, err)
	}
	if _, err := c.GetDoc(context.Background(), "ghost", GetDocOptions{}); !errors.Is(err, ErrRemote) {
		t.Errorf("missing doc error = %v", err)
	}
}

func TestInlineTransportCarriesData(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	addr, _ := startServer(t, reg)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Structure-only fetch is small; inlined fetch carries payloads.
	slim, err := c.GetDoc(context.Background(), "news", GetDocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slimBytes := c.BytesReceived()
	inlined, err := c.GetDoc(context.Background(), "news", GetDocOptions{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	fatBytes := c.BytesReceived() - slimBytes
	if fatBytes <= slimBytes {
		t.Errorf("inline fetch (%d B) not larger than structure fetch (%d B)",
			fatBytes, slimBytes)
	}
	if slim.Root.FindByName("intro").Type != core.Ext {
		t.Error("structure fetch inlined data")
	}
	if inlined.Root.FindByName("intro").Type != core.Imm {
		t.Error("inline fetch did not inline data")
	}
	// Receiver with no store can rebuild one from the inlined doc.
	localStore := media.NewStore()
	if _, err := Extract(inlined, localStore); err != nil {
		t.Fatal(err)
	}
	if localStore.Len() != 2 {
		t.Errorf("rebuilt store has %d blocks", localStore.Len())
	}
	if err := localStore.VerifyAll(); err != nil {
		t.Error(err)
	}
}

func TestPutDocAbsorbsInlinedData(t *testing.T) {
	d, store := fixture(t)
	inlined, err := Inline(d, store.GetByName, true)
	if err != nil {
		t.Fatal(err)
	}
	// Server starts empty.
	reg := NewRegistry(nil)
	addr, _ := startServer(t, reg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PutDoc(context.Background(), "shipped", inlined, EncodingBinary); err != nil {
		t.Fatal(err)
	}
	if reg.Store.Len() != 2 {
		t.Errorf("server store has %d blocks", reg.Store.Len())
	}
	got, ok := reg.GetDoc("shipped")
	if !ok {
		t.Fatal("document not registered")
	}
	if got.Doc().Root.FindByName("intro").Type != core.Ext {
		t.Error("server did not re-externalize inlined nodes")
	}
}

func TestBlockTransfer(t *testing.T) {
	_, store := fixture(t)
	reg := NewRegistry(nil)
	addr, _ := startServer(t, reg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	orig, _ := store.GetByName("voice.aud")
	id, err := c.PutBlock(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	if id != orig.ID {
		t.Errorf("server id %s != local %s", id[:8], orig.ID[:8])
	}
	back, err := c.GetBlock(context.Background(), "voice.aud")
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != orig.ID || back.Samples() != orig.Samples() {
		t.Error("block round trip mismatch")
	}
	// Fetch by content address too.
	byID, err := c.GetBlock(context.Background(), id)
	if err != nil || byID.ID != id {
		t.Errorf("fetch by id: %v", err)
	}
	if _, err := c.GetBlock(context.Background(), "nope"); !errors.Is(err, ErrRemote) {
		t.Errorf("missing block error = %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	addr, _ := startServer(t, reg)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if _, err := c.GetDoc(context.Background(), "news", GetDocOptions{Encoding: EncodingBinary}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFrameErrors(t *testing.T) {
	var buf bytes.Buffer
	// Oversized part count.
	parts := make([][]byte, maxParts+1)
	for i := range parts {
		parts[i] = []byte{1}
	}
	if err := writeFrame(&buf, opList, parts...); err == nil {
		t.Error("oversized part count accepted")
	}
	// Corrupt frames never panic.
	for _, raw := range [][]byte{
		{},
		{0, 0, 0, 0},
		{0, 0, 0, 2, 1},
		{255, 255, 255, 255, 1, 0, 0},
		{0, 0, 0, 7, 1, 0, 1, 0, 0, 0, 99},
	} {
		if _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("corrupt frame %v accepted", raw)
		}
	}
}

// TestRegistryHoldsWhatItIsGiven: the registry takes a document over
// and every read shares it — no copy per registration or per read.
// Callers that keep their own copy clone at the boundary (cmif's
// TestServedDocumentIsolation).
func TestRegistryHoldsWhatItIsGiven(t *testing.T) {
	d, _ := fixture(t)
	reg := NewRegistry(nil)
	reg.PutDoc("x", d)
	first, _ := reg.GetDoc("x")
	again, _ := reg.GetDoc("x")
	if first != again || first.Doc() != d {
		t.Error("the registry copied the document it was given")
	}
	if names := reg.DocNames(); len(names) != 1 || names[0] != "x" {
		t.Errorf("DocNames = %v", names)
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	reg := NewRegistry(nil)
	srv := NewServer(reg)
	for _, req := range []frame{
		{op: opGetDoc},
		{op: opGetDoc, parts: [][]byte{[]byte("x"), {99}, {0}}},
		{op: opPutDoc, parts: [][]byte{[]byte("x")}},
		{op: opPutDoc, parts: [][]byte{[]byte("x"), {byte(EncodingText)}, []byte("(junk")}},
		{op: 3}, // the retired single-block get
		{op: opPutBlk, parts: [][]byte{[]byte("x")}},
		{op: 42},
	} {
		resp := srv.handle(req)
		if resp.op != opErr && resp.op != opErrNotFound {
			t.Errorf("req op %d: response %d, want error", req.op, resp.op)
		}
		if len(resp.parts) == 0 || len(resp.parts[0]) == 0 {
			t.Errorf("req op %d: error response carries no message", req.op)
		}
	}
}

func TestNotFoundErrors(t *testing.T) {
	reg := NewRegistry(nil)
	addr, _ := startServer(t, reg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetDoc(context.Background(), "ghost", GetDocOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing doc error = %v, want ErrNotFound", err)
	}
	if _, err := c.GetBlock(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing block error = %v, want ErrNotFound", err)
	}
}

func TestContextCancellationInterruptsRoundTrip(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	addr, _ := startServer(t, reg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// An already-cancelled context fails before any I/O.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetDoc(ctx, "news", GetDocOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled fetch error = %v, want context.Canceled", err)
	}
	// An expired deadline fails too (possibly mid-I/O), and poisons the
	// connection for later calls.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := c.GetDoc(ctx2, "news", GetDocOptions{}); err == nil {
		t.Error("expired-deadline fetch succeeded")
	}
}

func TestGracefulShutdownAnswersInFlight(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	srv := NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prove the connection works, then shut down: the idle connection is
	// released and Shutdown returns promptly.
	if _, err := c.GetDoc(context.Background(), "news", GetDocOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	// The drained server refuses further work.
	if _, err := c.GetDoc(context.Background(), "news", GetDocOptions{}); err == nil {
		t.Error("fetch succeeded after shutdown")
	}
}
