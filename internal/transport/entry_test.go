package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/durable"
	"repro/internal/edit"
)

// archiveDoc generates a view-structure corpus document: Archive, seed
// 201, at size issues.
func archiveDoc(t *testing.T, size int) *core.Document {
	t.Helper()
	d, _, err := corpus.Generate(corpus.Spec{Shape: corpus.Archive, Seed: 201, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// getDocAllocs counts what one getdoc handler call allocates for a
// document registered a while ago (its first binary request is behind
// it).
func getDocAllocs(t *testing.T, d *core.Document, enc Encoding) float64 {
	t.Helper()
	srv := NewServer(NewRegistry(nil))
	srv.backend.(*Registry).PutDoc("doc", d)
	req := frame{op: opGetDoc, parts: [][]byte{[]byte("doc"), {byte(enc)}, {0}}}
	if resp := srv.handle(req); resp.op != opOK {
		t.Fatalf("getdoc: %s", resp.parts[0])
	}
	return testing.AllocsPerRun(20, func() { srv.handle(req) })
}

// TestGetDocReadsTheEntry: a getdoc copies nothing of the registered
// document. A binary answer is the registration's one encoding, so its
// allocations do not grow with the document; a text answer allocates
// what its encoding does, and fewer than one clone of the tree beyond.
func TestGetDocReadsTheEntry(t *testing.T) {
	small, large := archiveDoc(t, 2), archiveDoc(t, 20)
	bs, bl := getDocAllocs(t, small, EncodingBinary), getDocAllocs(t, large, EncodingBinary)
	if bs != bl || bl > 8 {
		t.Errorf("binary getdoc allocates %v objects at size 2 and %v at size 20, want one small constant", bs, bl)
	}
	text := getDocAllocs(t, large, EncodingText)
	encode := testing.AllocsPerRun(20, func() { _, _ = encodeDoc(large, EncodingText) })
	clone := testing.AllocsPerRun(20, func() { large.Clone() })
	if extra := text - encode; extra >= clone {
		t.Errorf("text getdoc allocates %v beyond its encoding (%v), a clone's worth (%v)", extra, encode, clone)
	}
}

// submitEditAllocs counts what one submitedit handler call allocates on a
// registry journaled to a durable log, with no read between the edits:
// each sets the duration of the first issue's title.
func submitEditAllocs(t *testing.T, d *core.Document) float64 {
	t.Helper()
	l, st, err := durable.Open(t.TempDir(), durable.Options{Sync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	reg := NewRegistry(st.Store)
	reg.Journal = l
	reg.PutDoc("doc", d)
	srv := NewServer(reg)
	req := frame{op: opSubmitEdit, parts: [][]byte{[]byte("doc"),
		core.EncodeChangeRecords(setDuration(t, "/issue-0/title", 2500))}}
	// The first edit copies the registered tree: PutDoc shared it with
	// its caller.
	if resp := srv.handle(req); resp.op != opOK {
		t.Fatalf("submitedit: %s", resp.parts[0])
	}
	return testing.AllocsPerRun(20, func() {
		if resp := srv.handle(req); resp.op != opOK {
			t.Fatalf("submitedit: %s", resp.parts[0])
		}
	})
}

// TestSubmitEditCostsWhatItTouches: a one-attribute edit nobody read
// between copies nothing of the document — not in the registry, and the
// journal keeps only the batch's bytes — so what it allocates does not
// grow with the document.
func TestSubmitEditCostsWhatItTouches(t *testing.T) {
	small, large := submitEditAllocs(t, archiveDoc(t, 20)), submitEditAllocs(t, archiveDoc(t, 200))
	if small != large {
		t.Errorf("a one-attribute submitedit allocates %v objects at size 20 and %v at size 200, want the same", small, large)
	}
}

// TestJournaledRegistryHoldsOneTree: a registry journaled to a durable
// log that edits a document once holds it as one tree, the registry's.
// What it holds beyond an unjournaled registry that made the same edit is
// the log's bytes — the put's encoding and the batch — not a second tree.
func TestJournaledRegistryHoldsOneTree(t *testing.T) {
	d := archiveDoc(t, 200)
	recs := setDuration(t, "/issue-0/title", 2500)
	bin, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	records := int64(len(bin) + len(core.EncodeChangeRecords(recs)))
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// held is what a registry holds after a put and one edit of a copy
	// of d, beyond what it held before.
	held := func(journaled bool) int64 {
		reg := NewRegistry(nil)
		var l *durable.Log
		if journaled {
			var st *durable.State
			l, st, err = durable.Open(t.TempDir(), durable.Options{Sync: durable.SyncNever, SnapshotBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			reg = NewRegistry(st.Store)
			reg.Journal = l
		}
		doc := d.Clone()
		before := heap()
		reg.PutDoc("doc", doc) // shared with this caller: the edit copies it
		if _, err := reg.EditDoc("doc", recs); err != nil {
			t.Fatal(err)
		}
		doc = nil
		after := heap()
		runtime.KeepAlive(reg)
		runtime.KeepAlive(l)
		return after - before
	}
	before := heap()
	tree := d.Clone()
	treeBytes := heap() - before
	runtime.KeepAlive(tree)

	extra := held(true) - held(false)
	t.Logf("journaled extra %d B; put encoding + batch %d B; one tree %d B", extra, records, treeBytes)
	if extra > records+treeBytes/4 {
		t.Errorf("a journaled registry holds %d B beyond an unjournaled one, more than the log's %d B of records: a second tree (%d B)",
			extra, records, treeBytes)
	}
}

// TestEditCopiesAPutTree: PutDoc shares its tree with the caller, and
// GetDoc with its reader, so the first edit after either copies it. The
// caller's tree stays as it was put, a reader's tree as it was read, the
// registered document takes every batch once, and the durable log's
// records rebuild the same document — in a resync and in recovery.
func TestEditCopiesAPutTree(t *testing.T) {
	dir := t.TempDir()
	l, st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := NewRegistry(st.Store)
	reg.Journal = l
	d, _ := fixture(t)
	bin := func(d *core.Document) string {
		t.Helper()
		data, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	put := bin(d)
	reg.PutDoc("news", d)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("late-%d", i)
		rec, err := edit.RecordInsert("/", 0, core.NewImm([]byte(name)).SetName(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.EditDoc("news", []core.ChangeRecord{rec}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if bin(d) != put {
		t.Fatal("an edit changed the tree its caller put")
	}
	read, _ := reg.GetDoc("news")
	held := bin(read.Doc())
	if _, err := reg.EditDoc("news", setDuration(t, "/intro", 700)); err != nil {
		t.Fatal(err)
	}
	if bin(read.Doc()) != held {
		t.Fatal("an edit changed the tree a reader holds")
	}
	e, _ := reg.GetDoc("news")
	frames, _, err := l.ResyncChunk("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := durable.DecodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Op != durable.RecPutDoc || string(recs[0].Fields[1]) != bin(e.Doc()) {
		t.Fatal("the log's records rebuild a document other than the registered one")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if bin(rec.Docs["news"]) != bin(e.Doc()) {
		t.Fatal("recovery rebuilt a different document")
	}
}

// TestOneBinaryPerRegistration: on a journaled registry, the bytes the
// journal keeps, a binary getdoc response and a subscribe snapshot are
// one backing array — the registration is encoded once.
func TestOneBinaryPerRegistration(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	j := &recordingJournal{}
	reg.Journal = j
	reg.PutDoc("news", d)
	if len(j.bins) != 1 {
		t.Fatalf("journal asked for %d encodings, want 1", len(j.bins))
	}
	resp := NewServer(reg).handle(frame{op: opGetDoc, parts: [][]byte{[]byte("news"), {byte(EncodingBinary)}, {0}}})
	if resp.op != opOK {
		t.Fatalf("getdoc: %s", resp.parts[0])
	}
	sub, err := reg.Subscribe("news", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.unsubscribe()
	snap := (<-sub.q).parts()[2]
	if &resp.parts[0][0] != &j.bins[0][0] || &snap[0] != &j.bins[0][0] {
		t.Fatal("getdoc, subscribe and the journal hold separate encodings of one registration")
	}
}

// TestEntryNeverServesStale swaps the registered document through every
// writer — putdoc over the wire, a submitted edit, PutDocAt, DropDoc —
// while readers hammer text, binary and inline getdocs and fresh
// subscribes. After each swap both encodings and a new subscription's
// snapshot show the new document, and every read in between shows some
// registered version, whole. Under -race, a server path that wrote a
// registered tree would be reported; one that changed it is caught by
// re-encoding each version at the end.
func TestEntryNeverServesStale(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	addr, _ := startServer(t, reg)
	ctx := context.Background()
	dial := func() *Client {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	bin := func(d *core.Document) []byte {
		t.Helper()
		data, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// versions holds the binary of every document the registry is about
	// to hold, noted before the swap, for the readers to check against;
	// entries, every entry it held, for the final check.
	var mu sync.Mutex
	versions := map[string]bool{}
	var entries []*Entry
	expect := func(d *core.Document) []byte {
		want := bin(d)
		mu.Lock()
		versions[string(want)] = true
		mu.Unlock()
		return want
	}
	known := func(data []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		return versions[string(data)]
	}
	registered := func(step string, want []byte) {
		t.Helper()
		e, ok := reg.GetDoc("news")
		if !ok {
			t.Fatalf("%s: news is not registered", step)
		}
		if !bytes.Equal(bin(e.Doc()), want) {
			t.Fatalf("%s registered something other than its result", step)
		}
		entries = append(entries, e)
	}

	expect(d)
	reg.PutDoc("news", d)
	registered("PutDoc", bin(d))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErr := make(chan error, 4)
	for i, read := range []func(c *Client) ([]byte, error){
		func(c *Client) ([]byte, error) {
			got, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingText})
			if err != nil {
				return nil, err
			}
			return codec.EncodeBinary(got)
		},
		func(c *Client) ([]byte, error) {
			got, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingBinary})
			if err != nil {
				return nil, err
			}
			return codec.EncodeBinary(got)
		},
		func(c *Client) ([]byte, error) {
			_, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingBinary, Inline: true})
			return nil, err
		},
		func(c *Client) ([]byte, error) {
			sub, err := c.SubscribeDoc(ctx, "news")
			if err != nil {
				return nil, err
			}
			defer sub.Close()
			return codec.EncodeBinary(sub.Doc)
		},
	} {
		c := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := read(c)
				switch {
				case errors.Is(err, ErrNotFound): // between a drop and a put
				case err != nil:
					readErr <- fmt.Errorf("reader %d: %w", i, err)
					return
				case data != nil && !known(data):
					readErr <- fmt.Errorf("reader %d saw a document never registered", i)
					return
				}
			}
		}()
	}

	c := dial()
	check := func(step string, want []byte) {
		t.Helper()
		for _, enc := range []Encoding{EncodingText, EncodingBinary} {
			got, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: enc})
			if err != nil {
				t.Fatalf("%s: getdoc %c: %v", step, enc, err)
			}
			if !bytes.Equal(bin(got), want) {
				t.Fatalf("%s: getdoc %c serves the document from before", step, enc)
			}
		}
		sub, err := c.SubscribeDoc(ctx, "news")
		if err != nil {
			t.Fatalf("%s: subscribe: %v", step, err)
		}
		defer sub.Close()
		if !bytes.Equal(bin(sub.Doc), want) {
			t.Fatalf("%s: a new subscription's snapshot is the document from before", step)
		}
	}

	for round := 0; round < 5; round++ {
		// putdoc over the wire.
		put := d.Clone()
		put.Root.SetName(fmt.Sprintf("put-%d", round))
		want := expect(put)
		if err := c.PutDoc(ctx, "news", put, EncodingBinary); err != nil {
			t.Fatal(err)
		}
		registered("putdoc", want)
		check("putdoc", want)

		// A submitted edit.
		recs := setDuration(t, "/intro", int64(100+round))
		edited := put.Clone()
		if err := edit.Apply(edited, recs); err != nil {
			t.Fatal(err)
		}
		want = expect(edited)
		if _, err := c.SubmitEdit(ctx, "news", recs); err != nil {
			t.Fatal(err)
		}
		registered("submitedit", want)
		check("submitedit", want)

		// A registration at an explicit generation.
		at := d.Clone()
		at.Root.SetName(fmt.Sprintf("at-%d", round))
		want = expect(at)
		reg.PutDocAt("news", at, uint64(round))
		registered("putdocat", want)
		check("putdocat", want)

		// An inline getdoc leaves the registered tree as it was.
		e, _ := reg.GetDoc("news")
		before := bin(e.Doc())
		if _, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingText, Inline: true}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin(e.Doc()), before) {
			t.Fatal("an inline getdoc changed the registered tree")
		}

		// A drop.
		reg.DropDoc("news", "dropped")
		if _, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingBinary}); !errors.Is(err, ErrNotFound) {
			t.Fatalf("getdoc after DropDoc: %v, want ErrNotFound", err)
		}
		if _, err := c.SubscribeDoc(ctx, "news"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("subscribe after DropDoc: %v, want ErrNotFound", err)
		}
	}
	close(stop)
	wg.Wait()
	close(readErr)
	for err := range readErr {
		t.Error(err)
	}
	for _, e := range entries {
		want := bin(e.Doc())
		if !known(want) {
			t.Fatal("a registered tree changed after registration")
		}
		if got, err := e.Binary(); err != nil || !bytes.Equal(got, want) {
			t.Fatal("an entry's binary is not its document")
		}
	}
}

// TestBinaryPutDocRefusesWhatTextCannotCarry: a document a client puts
// in binary must be one every text client can fetch. A leaf carrying an
// attribute the text writer refuses ("+A") is refused at putdoc, and
// nothing is registered under the name.
func TestBinaryPutDocRefusesWhatTextCannotCarry(t *testing.T) {
	d, store := fixture(t)
	d.Root.Children()[0].SetAttr("xA", attr.ID("v"))
	data, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	// The encoder refuses "+A" too, so patch an accepted name of the
	// same length in the bytes.
	at := bytes.Index(data, []byte("xA"))
	if at < 0 {
		t.Fatal("attribute name not found in the encoding")
	}
	data[at] = '+'
	addr, _ := startServer(t, NewRegistry(store))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, err = c.roundTrip(ctx, opPutDoc, []byte("news"), []byte{byte(EncodingBinary)}, data)
	if err == nil || !strings.Contains(err.Error(), `"+A"`) {
		t.Fatalf("binary putdoc of an attribute named +A: %v, want a refusal naming it", err)
	}
	for _, enc := range []Encoding{EncodingText, EncodingBinary} {
		if _, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: enc}); !errors.Is(err, ErrNotFound) {
			t.Errorf("getdoc %c after the refused putdoc: %v, want ErrNotFound", enc, err)
		}
	}
}
