package cmif_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/cmif"
)

// buildDoc authors the quickstart slide show for test fixtures.
func buildDoc(t *testing.T) *cmif.Document {
	t.Helper()
	root := cmif.NewPar().SetName("slideshow")
	pictures := cmif.NewSeq().SetName("pictures").
		SetAttr("channel", cmif.ID("screen"))
	for _, file := range []string{"intro.img", "closing.img"} {
		pictures.AddChild(cmif.NewExt().
			SetName(file).
			SetAttr("file", cmif.String(file)).
			SetAttr("duration", cmif.Qty(cmif.Sec(4))))
	}
	caption := cmif.NewImm([]byte("hello")).SetName("caption").
		SetAttr("channel", cmif.ID("subtitles")).
		SetAttr("duration", cmif.Qty(cmif.Sec(2)))
	root.Add(pictures, caption)
	doc, err := cmif.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	cd := cmif.NewChannelDict()
	cd.Define(cmif.Channel{Name: "screen", Medium: cmif.MediumImage})
	cd.Define(cmif.Channel{Name: "subtitles", Medium: cmif.MediumText})
	doc.SetChannels(cd)
	if err := doc.Check(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return doc
}

func TestRoundTripWithFormatDetection(t *testing.T) {
	doc := buildDoc(t)

	text, err := cmif.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := cmif.Encode(doc, cmif.WithFormat(cmif.FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := cmif.DetectFormat(text); f != cmif.FormatText {
		t.Errorf("text detected as %v", f)
	}
	if f, _ := cmif.DetectFormat(bin); f != cmif.FormatBinary {
		t.Errorf("binary detected as %v", f)
	}

	// Decode auto-detects both; the trees agree with the original.
	for name, data := range map[string][]byte{"text": text, "binary": bin} {
		got, err := cmif.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Root().Name() != "slideshow" || got.Root().Count() != doc.Root().Count() {
			t.Errorf("%s: tree mismatch after round trip", name)
		}
		if got.Channels().Len() != 2 {
			t.Errorf("%s: channel dictionary lost", name)
		}
	}

	// text → binary → text is stable.
	viaBin, err := cmif.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	text2, err := cmif.Encode(viaBin)
	if err != nil {
		t.Fatal(err)
	}
	if string(text2) != string(text) {
		t.Error("text→binary→text round trip not stable")
	}
}

func TestOpenDetectsFormatAndNotFound(t *testing.T) {
	doc := buildDoc(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		opts []cmif.CodecOption
	}{
		{"doc.cmif", nil},
		{"doc.cmifb", []cmif.CodecOption{cmif.WithFormat(cmif.FormatBinary)}},
	} {
		data, err := cmif.Encode(doc, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := cmif.Open(path)
		if err != nil {
			t.Fatalf("Open(%s): %v", tc.name, err)
		}
		if got.Root().Name() != "slideshow" {
			t.Errorf("Open(%s): wrong document", tc.name)
		}
	}
	if _, err := cmif.Open(filepath.Join(dir, "missing.cmif")); !errors.Is(err, cmif.ErrNotFound) {
		t.Errorf("Open(missing) = %v, want ErrNotFound", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	// Garbage input: bad format, regardless of entry point.
	for _, data := range [][]byte{
		nil,
		[]byte("not a document"),
		[]byte("CMIF\xff corrupt"),
		[]byte("(par (unclosed"),
	} {
		if _, err := cmif.Decode(data); !errors.Is(err, cmif.ErrBadFormat) {
			t.Errorf("Decode(%q) = %v, want ErrBadFormat", data, err)
		}
	}
	// A structurally invalid document yields a typed *ValidationError.
	root := cmif.NewPar().SetName("bad")
	leaf := cmif.NewExt().SetName("leaf") // no channel, no file
	leaf.AddArc(cmif.SyncArc{Source: "../nowhere", SrcEnd: cmif.Begin,
		DestEnd: cmif.Begin, Strict: cmif.Must, MaxDelay: cmif.MS(0)})
	root.AddChild(leaf)
	doc, err := cmif.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	verr := doc.Check()
	var ve *cmif.ValidationError
	if !errors.As(verr, &ve) {
		t.Fatalf("Check() = %v, want *ValidationError", verr)
	}
	if len(ve.Errors()) == 0 {
		t.Error("ValidationError carries no error issues")
	}
	// The pipeline surfaces the same typed error.
	if _, err := cmif.RunPipeline(context.Background(), doc); !errors.As(err, &ve) {
		t.Errorf("RunPipeline(invalid) = %v, want *ValidationError", err)
	}
}

func TestPipelineRunAndCancellation(t *testing.T) {
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := []cmif.PipelineOption{
		cmif.WithProfile(cmif.Laptop1991),
		cmif.WithStore(store),
		cmif.WithScreen(cmif.Screen{W: 640, H: 480}),
		cmif.WithSpeakers(1),
	}
	out, err := cmif.RunPipeline(context.Background(), doc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schedule == nil || out.FilterMap == nil || out.Playback == nil {
		t.Error("outcome missing artifacts")
	}
	if out.TreeView == "" || out.TimelineView == "" || out.TOCView == "" || out.ArcView == "" {
		t.Error("a view was not rendered")
	}

	// A cancelled context aborts the run with context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cmif.RunPipeline(ctx, doc, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run = %v, want context.Canceled", err)
	}

	// A text terminal cannot support the broadcast: the run completes and
	// the filter map says so. Later options override earlier ones.
	out, err = cmif.RunPipeline(context.Background(), doc,
		append(opts, cmif.WithProfile(cmif.TextTerminal))...)
	if err != nil {
		t.Fatalf("terminal run = %v, want the unsupportable verdict in the outcome", err)
	}
	if out.FilterMap.Supportable() {
		t.Error("terminal run claims support")
	}
}

func TestClientServerFacade(t *testing.T) {
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := cmif.NewServer(
		cmif.WithServedStore(store),
		cmif.WithServedDocument("news", doc),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx := context.Background()
	c, err := cmif.Dial(ctx, addr, cmif.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	names, err := c.List(ctx)
	if err != nil || len(names) != 1 || names[0] != "news" {
		t.Fatalf("List = %v, %v", names, err)
	}
	got, err := c.Document(ctx, "news")
	if err != nil {
		t.Fatal(err)
	}
	if got.Root().Name() != doc.Root().Name() {
		t.Error("fetched document mismatch")
	}
	// Remote not-found matches both taxonomy sentinels.
	_, err = c.Document(ctx, "ghost")
	if !errors.Is(err, cmif.ErrNotFound) || !errors.Is(err, cmif.ErrRemote) {
		t.Errorf("missing doc = %v, want ErrNotFound and ErrRemote", err)
	}
	// Round-trip a document upload.
	up := buildDoc(t)
	if err := c.Put(ctx, "slides", up); err != nil {
		t.Fatal(err)
	}
	back, err := c.Document(ctx, "slides")
	if err != nil || back.Root().Name() != "slideshow" {
		t.Fatalf("uploaded doc fetch = %v", err)
	}
	// Block transfer by name.
	blk := cmif.CaptureText("label.txt", "hello", "en")
	id, err := c.PutBlock(ctx, blk)
	if err != nil || id != blk.ID {
		t.Fatalf("PutBlock = %q, %v", id, err)
	}
	got2, err := c.Block(ctx, "label.txt")
	if err != nil || got2.ID != blk.ID {
		t.Fatalf("Block = %v", err)
	}
	if _, err := c.Block(ctx, "nope"); !errors.Is(err, cmif.ErrNotFound) {
		t.Errorf("missing block = %v, want ErrNotFound", err)
	}

	// A cancelled context stops a fresh client cold.
	c2, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c2.Document(cctx, "news"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled fetch = %v, want context.Canceled", err)
	}
}

func TestBatchedFetchAndPrefetch(t *testing.T) {
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := cmif.NewServer(
		cmif.WithServedStore(store),
		cmif.WithServedDocument("news", doc),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx := context.Background()
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	files := doc.ExternalFiles()
	if len(files) == 0 {
		t.Fatal("news corpus has no external files")
	}

	// Batched fetch: partial results, aligned with the request.
	req := append([]string{"no-such-block"}, files...)
	blocks, err := c.Blocks(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0] != nil {
		t.Errorf("missing name yielded %v, want nil", blocks[0])
	}
	for i, b := range blocks[1:] {
		if b == nil {
			t.Fatalf("block %q missing from batch", files[i])
		}
	}

	// Descriptors travel alone.
	descs, err := c.Descriptors(ctx, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != len(files) {
		t.Errorf("Descriptors = %d entries, want %d", len(descs), len(files))
	}

	// Prefetch assembles a local store good enough to run the pipeline.
	local, err := cmif.PrefetchVia(ctx, c, doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := local.GetByName(f); !ok {
			t.Errorf("Prefetch left %q unresolvable", f)
		}
	}
	out, err := cmif.RunPipeline(ctx, doc,
		cmif.WithProfile(cmif.Workstation1991),
		cmif.WithStore(local),
		cmif.WithScreen(cmif.Screen{W: 1152, H: 900}),
		cmif.WithSpeakers(2),
	)
	if err != nil {
		t.Fatalf("pipeline over prefetched store: %v", err)
	}
	if !out.FilterMap.Supportable() {
		t.Error("prefetched store left the document unsupportable")
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	doc := buildDoc(t)
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- cmif.Serve(ctx, "127.0.0.1:0", func(bound string, s *cmif.Server) {
			addrCh <- bound
		}, cmif.WithServedDocument("news", doc), cmif.WithShutdownGrace(2*time.Second))
	}()
	addr := <-addrCh
	c, err := cmif.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Document(context.Background(), "news"); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after cancellation")
	}
}

func TestDocumentEditAndSpecialize(t *testing.T) {
	doc := buildDoc(t)
	// Delete a picture; the document stays valid.
	if _, err := doc.DeleteNode("/pictures/closing.img"); err != nil {
		t.Fatal(err)
	}
	if doc.FindByName("closing.img") != nil {
		t.Error("deleted node still present")
	}
	if err := doc.Check(); err != nil {
		t.Errorf("document invalid after edit: %v", err)
	}
	// Conditional structure: one document, two audiences.
	en := cmif.NewImm([]byte("hi")).SetName("cap-en").
		SetAttr("channel", cmif.ID("subtitles")).
		SetAttr("duration", cmif.Qty(cmif.Sec(1)))
	cmif.SetWhen(en, "lang=en")
	if _, err := doc.InsertNode("/", -1, en); err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Specialize(cmif.Env{"lang": "nl"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.FindByName("cap-en") != nil {
		t.Error("conditional branch survived specialization")
	}
}
