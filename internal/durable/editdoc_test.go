package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/units"
)

// edited applies recs to a clone of d and returns the document the batch
// produces, with the batch's encoding.
func edited(t testing.TB, d *core.Document, recs ...core.ChangeRecord) (*core.Document, []byte) {
	t.Helper()
	next := d.Clone()
	if err := edit.Apply(next, recs); err != nil {
		t.Fatalf("edit.Apply: %v", err)
	}
	return next, core.EncodeChangeRecords(recs)
}

// setDuration builds the record setting the duration of the node at path.
func setDuration(t testing.TB, path string, ms int64) core.ChangeRecord {
	t.Helper()
	rec, err := edit.RecordSetAttr(path, "duration", attr.Quantity(units.MS(ms)))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// insertLeaf builds the record appending an immediate leaf named name to
// the root.
func insertLeaf(t testing.TB, name string) core.ChangeRecord {
	t.Helper()
	leaf := core.NewImm([]byte(name)).SetName(name).SetAttr("channel", attr.ID("labels"))
	rec, err := edit.RecordInsert("/", -1, leaf)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// docBytes is the binary encoding documents are compared by.
func docBytes(t testing.TB, d *core.Document) []byte {
	t.Helper()
	data, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mustLoad is Load that fails the test on error.
func mustLoad(t *testing.T, dir string) *State {
	t.Helper()
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st
}

// loadDoc recovers dir and returns the document registered under name.
func loadDoc(t *testing.T, dir, name string) *core.Document {
	t.Helper()
	d, ok := mustLoad(t, dir).Docs[name]
	if !ok {
		t.Fatalf("document %q missing after recovery", name)
	}
	return d
}

// dirOps counts the records of every snapshot and WAL segment in dir by
// op.
func dirOps(t *testing.T, dir string) map[byte]int {
	t.Helper()
	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[byte]int)
	count := func(path string) {
		for op, n := range snapshotOps(t, path) {
			ops[op] += n
		}
	}
	for _, seq := range listing.snapSeqs {
		count(filepath.Join(dir, snapName(seq)))
	}
	for _, seq := range listing.walSeqs {
		count(filepath.Join(dir, walName(seq)))
	}
	return ops
}

// walSeed is a framed record sequence replay must accept (ok) or reject
// as corruption.
type walSeed struct {
	name string
	data []byte
	ok   bool
}

// docRecordSeeds frames the document-record sequences FuzzWALReplay
// starts from: a put followed by a valid edit, and the three ways an edit
// record can be wrong.
func docRecordSeeds(tb testing.TB) []walSeed {
	tb.Helper()
	put := encodeFrame(recPutDoc, []byte("news"), docBytes(tb, testDoc(tb, "news")))
	editOf := func(recs ...core.ChangeRecord) []byte {
		return encodeFrame(recEditDoc, []byte("news"), core.EncodeChangeRecords(recs))
	}
	valid := editOf(setDuration(tb, "/cap", 250), insertLeaf(tb, "late"), edit.RecordDelete("/clip"))
	return []walSeed{
		{"valid", append(append([]byte(nil), put...), valid...), true},
		{"undecodable", append(append([]byte(nil), put...),
			encodeFrame(recEditDoc, []byte("news"), []byte("\x01\x02\x09not records"))...), false},
		{"missing", valid, false},
		{"conflict", append(append([]byte(nil), put...), editOf(edit.RecordDelete("/nonexistent"))...), false},
	}
}

// TestWriteWALFuzzSeeds materializes docRecordSeeds as corpus files
// under testdata/fuzz/FuzzWALReplay when UPDATE_FUZZ_CORPUS=1.
func TestWriteWALFuzzSeeds(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	for _, s := range docRecordSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if err := os.WriteFile(filepath.Join(dir, "doc-"+s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEditDocReplay: a valid edit replays onto its document; an edit of
// a missing document, with undecodable records, or that conflicts is a
// *CorruptError, never a skipped record.
func TestEditDocReplay(t *testing.T) {
	want, _ := edited(t, testDoc(t, "news"),
		setDuration(t, "/cap", 250), insertLeaf(t, "late"), edit.RecordDelete("/clip"))
	for _, s := range docRecordSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walName(1)), s.data, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Load(dir)
			if !s.ok {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("want a *CorruptError, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !bytes.Equal(docBytes(t, st.Docs["news"]), docBytes(t, want)) {
				t.Fatal("replayed edit differs from the live one")
			}
		})
	}
}

// TestEditDocJournalsTheChange: an edit batch costs a record the size of
// its change records, not of the document, and recovery re-executes the
// batches onto the put to reach the live document byte for byte — also
// from a reopened log whose document was edited before the restart.
func TestEditDocJournalsTheChange(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	live := testDoc(t, "news")
	if err := l.PutDoc("news", binaryOf(live)); err != nil {
		t.Fatal(err)
	}
	whole := int64(len(docBytes(t, live)))
	before := l.Stats()
	for _, recs := range [][]core.ChangeRecord{
		{setDuration(t, "/cap", 250)},
		{insertLeaf(t, "late")},
		{edit.RecordDelete("/clip")},
	} {
		next, enc := edited(t, live, recs...)
		if err := l.EditDoc("news", enc, binaryOf(next)); err != nil {
			t.Fatal(err)
		}
		live = next
	}
	after := l.Stats()
	if n := after.Records - before.Records; n != 3 {
		t.Fatalf("three edits appended %d records", n)
	}
	if grew := after.AppendedBytes - before.AppendedBytes; grew >= whole {
		t.Fatalf("three edits journaled %d bytes, at least one whole %d-byte document", grew, whole)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if ops := dirOps(t, dir); ops[recPutDoc] != 1 || ops[recEditDoc] != 3 {
		t.Fatalf("WAL ops %v, want one recPutDoc and three recEditDoc", ops)
	}
	if !bytes.Equal(docBytes(t, loadDoc(t, dir, "news")), docBytes(t, live)) {
		t.Fatal("recovered document differs from the live one")
	}

	// Reopened, the log knows the document but holds no binary for it.
	// A re-put of the original must be journaled, not deduped against
	// the put the edits superseded, and so must one after a further edit.
	l2, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	base := testDoc(t, "news")
	for i := 0; i < 2; i++ {
		if err := l2.PutDoc("news", binaryOf(base)); err != nil {
			t.Fatal(err)
		}
		rec := setDuration(t, "/cap", 900)
		next, enc := edited(t, base, rec)
		if err := l2.EditDoc("news", enc, binaryOf(next)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.PutDoc("news", binaryOf(base)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if ops := dirOps(t, dir); ops[recPutDoc] != 4 || ops[recEditDoc] != 5 {
		t.Fatalf("WAL ops %v, want four recPutDoc and five recEditDoc", ops)
	}
	if !bytes.Equal(docBytes(t, loadDoc(t, dir, "news")), docBytes(t, base)) {
		t.Fatal("a re-put over an edited document did not win on recovery")
	}
}

// TestRefusedEditLeavesTheLogsCopy: an edit whose record cannot be
// appended, because the log is closed, is refused and leaves the bytes the
// log keeps for the document as they were.
func TestRefusedEditLeavesTheLogsCopy(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	base := testDoc(t, "news")
	if err := l.PutDoc("news", binaryOf(base)); err != nil {
		t.Fatal(err)
	}
	live, enc := edited(t, base, setDuration(t, "/cap", 250))
	if err := l.EditDoc("news", enc, binaryOf(live)); err != nil {
		t.Fatal(err)
	}
	want := *l.st.docs["news"]

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	more := []core.ChangeRecord{insertLeaf(t, "late")}
	if err := l.EditDoc("news", core.EncodeChangeRecords(more), binaryOf(live)); err == nil {
		t.Fatal("a closed log journaled an edit")
	}
	got := l.st.docs["news"]
	if !bytes.Equal(got.base, want.base) || len(got.tail) != len(want.tail) {
		t.Fatal("an edit the log could not append changed its bytes")
	}
	if data, err := fold("news", got.base, got.tail); err != nil || !bytes.Equal(data, docBytes(t, live)) {
		t.Fatalf("the log's bytes no longer rebuild the live document (fold: %v)", err)
	}
}

// paddedDoc is testDoc with a 64 KiB leaf: a base no test's tail of
// edits outweighs, so no background fold runs beside the test's own.
func paddedDoc(t *testing.T, label string) *core.Document {
	t.Helper()
	d := testDoc(t, label)
	d.Root.Add(core.NewImm(bytes.Repeat([]byte("p"), 64<<10)).SetName("pad").
		SetAttr("channel", attr.ID("labels")))
	return d
}

// TestSnapshotFoldsEdits: a snapshot folds a document's edits into one
// recPutDoc byte-equal to the registry's encoding of the edited tree,
// and the log keeps that encoding as the document's base. A fold runs
// outside the log's lock: edits appended meanwhile stay in the tail and
// recover in order, and a put made meanwhile is not overwritten.
func TestSnapshotFoldsEdits(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	live := paddedDoc(t, "news")
	if err := l.PutDoc("news", binaryOf(live)); err != nil {
		t.Fatal(err)
	}
	editNews := func(i int) {
		t.Helper()
		next, enc := edited(t, live, insertLeaf(t, fmt.Sprintf("n-%d", i)))
		if err := l.EditDoc("news", enc, binaryOf(next)); err != nil {
			t.Fatal(err)
		}
		live = next
	}
	for i := 0; i < 5; i++ {
		editNews(i)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	listing, err := listDir(dir)
	if err != nil || len(listing.snapSeqs) == 0 {
		t.Fatalf("no snapshot written (%v)", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapName(listing.snapSeqs[len(listing.snapSeqs)-1])))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	var puts [][]byte
	for _, r := range recs {
		switch r.Op {
		case recEditDoc:
			t.Fatal("the snapshot holds a recEditDoc")
		case recPutDoc:
			puts = append(puts, r.Fields[1])
		}
	}
	if len(puts) != 1 || !bytes.Equal(puts[0], docBytes(t, live)) {
		t.Fatalf("the snapshot holds %d recPutDoc, want one equal to the registry's encoding", len(puts))
	}
	if cur := l.st.docs["news"]; len(cur.tail) != 0 || !bytes.Equal(cur.base, puts[0]) {
		t.Fatal("the log did not keep the folded encoding as its base")
	}

	// capture takes name's bytes as a snapshot or resync does, under the
	// lock; the caller folds them with l.folded after racing it.
	capture := func() (*docJournal, docJournal) {
		l.mu.Lock()
		defer l.mu.Unlock()
		cur := l.st.docs["news"]
		return cur, *cur
	}
	editNews(5)
	folds := docBytes(t, live)
	cur, at := capture()
	editNews(6)
	editNews(7)
	if data, err := l.folded("news", cur, at); err != nil || !bytes.Equal(data, folds) {
		t.Fatalf("fold: %v, or not the document the captured edits produced", err)
	}
	got := l.st.docs["news"]
	if !bytes.Equal(got.base, folds) || len(got.tail) != 2 {
		t.Fatalf("after the fold the log holds a tail of %d batches, want the 2 appended during it", len(got.tail))
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	editNews(8)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docBytes(t, loadDoc(t, dir, "news")), docBytes(t, live)) {
		t.Fatal("edits appended during a fold did not recover in order")
	}

	l, _ = mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	editNews(9)
	cur, at = capture()
	reput := paddedDoc(t, "reput")
	if err := l.PutDoc("news", binaryOf(reput)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.folded("news", cur, at); err != nil {
		t.Fatal(err)
	}
	if got := l.st.docs["news"]; !bytes.Equal(got.base, docBytes(t, reput)) || len(got.tail) != 0 {
		t.Fatal("a fold overwrote a put made while it ran")
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docBytes(t, loadDoc(t, dir, "news")), docBytes(t, reput)) {
		t.Fatal("a put made during a fold did not recover")
	}
}

// TestLongTailFolds: once a document's tail of edits outweighs its base,
// the log folds it in the background until it no longer does, so it does
// not keep every batch until the next snapshot; the folded bytes still
// rebuild the live document, and the directory recovers it.
func TestLongTailFolds(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	live := testDoc(t, "news")
	if err := l.PutDoc("news", binaryOf(live)); err != nil {
		t.Fatal(err)
	}
	var appended int
	for i := 0; i < 200; i++ {
		recs := []core.ChangeRecord{insertLeaf(t, fmt.Sprintf("n-%d", i))}
		if i > 0 {
			recs = append(recs, edit.RecordDelete(fmt.Sprintf("/n-%d", i-1)))
		}
		next, enc := edited(t, live, recs...)
		if err := l.EditDoc("news", enc, binaryOf(next)); err != nil {
			t.Fatal(err)
		}
		live, appended = next, appended+len(enc)
	}
	if err := l.Close(); err != nil { // waits for background folds
		t.Fatal(err)
	}
	cur := l.st.docs["news"]
	if cur.tailBytes > len(cur.base) {
		t.Fatalf("the log keeps a %d-byte tail over a %d-byte base after %d bytes of edits",
			cur.tailBytes, len(cur.base), appended)
	}
	if data, err := fold("news", cur.base, cur.tail); err != nil || !bytes.Equal(data, docBytes(t, live)) {
		t.Fatalf("the folded bytes do not rebuild the live document (%v)", err)
	}
	if !bytes.Equal(docBytes(t, loadDoc(t, dir, "news")), docBytes(t, live)) {
		t.Fatal("recovered document differs from the live one")
	}
}

// TestResyncRacesEdits: a resync folds a document outside the log's lock
// while edits append to its tail; under -race an edit racing the fold
// would be reported, and every framed document must be one the edits
// produced.
func TestResyncRacesEdits(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, SnapshotBytes: -1})
	defer l.Close()
	prev := testDoc(t, "race")
	if err := l.PutDoc("race", binaryOf(prev)); err != nil {
		t.Fatal(err)
	}
	const edits = 300
	versions := map[string]bool{string(docBytes(t, prev)): true}
	var batches [][]core.ChangeRecord
	var chain []*core.Document
	for i := 0; i < edits; i++ {
		recs := []core.ChangeRecord{insertLeaf(t, fmt.Sprintf("n-%d", i))}
		if i > 0 {
			recs = append(recs, edit.RecordDelete(fmt.Sprintf("/n-%d", i-1)))
		}
		next, _ := edited(t, prev, recs...)
		versions[string(docBytes(t, next))] = true
		batches, chain = append(batches, recs), append(chain, next)
		prev = next
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, recs := range batches {
			if err := l.EditDoc("race", core.EncodeChangeRecords(recs), binaryOf(chain[i])); err != nil {
				t.Errorf("EditDoc: %v", err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		frames, _, err := l.ResyncChunk("", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := DecodeFrames(frames)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || recs[0].Op != RecPutDoc || !versions[string(recs[0].Fields[1])] {
			t.Fatal("a resync framed a document no edit produced")
		}
	}
}

// TestEditDocOfUnknownNameJournalsWhole: an edit of a name the log holds
// no document for is journaled as a put, so the WAL never holds an edit
// recovery cannot apply.
func TestEditDocOfUnknownNameJournalsWhole(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	rec := setDuration(t, "/cap", 300)
	d, enc := edited(t, testDoc(t, "fresh"), rec)
	if err := l.EditDoc("fresh", enc, binaryOf(d)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if ops := dirOps(t, dir); ops[recPutDoc] != 1 || ops[recEditDoc] != 0 {
		t.Fatalf("WAL ops %v, want one recPutDoc", ops)
	}
	if !bytes.Equal(docBytes(t, loadDoc(t, dir, "fresh")), docBytes(t, d)) {
		t.Fatal("recovered document differs from the live one")
	}
}

// TestEditDocFormatCompat: a directory in the earlier format — one
// recPutDoc per edit — still recovers byte-equal and takes new edits;
// and after a snapshot a directory that held recEditDoc records holds
// only ops the earlier format knows (up to recPutBlkC), which is the
// downgrade path: snapshot (Server.Snapshot), then stop the server.
func TestEditDocFormatCompat(t *testing.T) {
	live := testDoc(t, "news")
	var states []*core.Document
	var encs [][]byte
	recs := []core.ChangeRecord{
		setDuration(t, "/cap", 250), insertLeaf(t, "late"), edit.RecordDelete("/clip"),
	}
	for _, rec := range recs {
		var enc []byte
		live, enc = edited(t, live, rec)
		states, encs = append(states, live), append(encs, enc)
	}

	t.Run("earlier-format-recovers", func(t *testing.T) {
		dir := t.TempDir()
		var wal bytes.Buffer
		wal.Write(encodeFrame(recPutDoc, []byte("news"), docBytes(t, testDoc(t, "news"))))
		for _, d := range states {
			wal.Write(encodeFrame(recPutDoc, []byte("news"), docBytes(t, d)))
		}
		if err := os.WriteFile(filepath.Join(dir, walName(1)), wal.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(docBytes(t, loadDoc(t, dir, "news")), docBytes(t, live)) {
			t.Fatal("earlier-format directory recovered a different document")
		}
		l, st := mustOpen(t, dir, Options{Sync: SyncNever})
		rec := insertLeaf(t, "later")
		next, enc := edited(t, st.Docs["news"], rec)
		if err := l.EditDoc("news", enc, binaryOf(next)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(docBytes(t, loadDoc(t, dir, "news")), docBytes(t, next)) {
			t.Fatal("an edit on top of the earlier format did not recover")
		}
	})

	t.Run("snapshot-downgrades", func(t *testing.T) {
		dir := t.TempDir()
		l, st := mustOpen(t, dir, Options{Sync: SyncNever})
		populate(t, l, st) // blocks, names, descriptors and the base document
		for i, d := range states {
			if err := l.EditDoc("news", encs[i], binaryOf(d)); err != nil {
				t.Fatal(err)
			}
		}
		if ops := dirOps(t, dir); ops[recEditDoc] != len(states) {
			t.Fatalf("WAL ops %v before the snapshot, want %d recEditDoc", ops, len(states))
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for op := range dirOps(t, dir) {
			if op > recPutBlkC {
				t.Fatalf("snapshotted directory still holds op %d", op)
			}
		}
		checkEqual(t, liveState(t, l), mustLoad(t, dir))
	})
}

// TestResyncAndAppendFramesSeeEditedDocs: a document whose binary is
// stale still resyncs as the live version, and a replicated put of it is
// never deduped against the stale entry.
func TestResyncAndAppendFramesSeeEditedDocs(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer l.Close()
	base := testDoc(t, "news")
	if err := l.PutDoc("news", binaryOf(base)); err != nil {
		t.Fatal(err)
	}
	rec := insertLeaf(t, "late")
	live, enc := edited(t, base, rec)
	if err := l.EditDoc("news", enc, binaryOf(live)); err != nil {
		t.Fatal(err)
	}
	frames, next, err := l.ResyncChunk("", 1<<20)
	if err != nil || next != "" {
		t.Fatalf("ResyncChunk: next %q, err %v", next, err)
	}
	recs, err := DecodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Op != RecPutDoc || !bytes.Equal(recs[0].Fields[1], docBytes(t, live)) {
		t.Fatal("resync did not ship the edited document whole")
	}

	docs, err := l.AppendFrames(FramePutDoc("news", docBytes(t, base)))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatal("a replicated put was deduped against a stale entry")
	}
}

// TestSnapshotRacesEdits: snapshots taken in a loop while writers edit
// never leave an edit in both the snapshot and the WAL tail. Each batch
// inserts child n-i and deletes n-(i-1), so an edit applied twice fails
// recovery as a conflict, and every recovered document must match its
// live one byte for byte. The batches are built up front, and several
// writers edit their own documents, so the log's lock stays contended;
// hundreds of idle documents make a capture long enough that an edit
// would land inside it if it ran outside the lock.
func TestSnapshotRacesEdits(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever, SegmentBytes: 1 << 10, SnapshotBytes: -1})
	for i := 0; i < 500; i++ {
		d := testDoc(t, "idle")
		if err := l.PutDoc(fmt.Sprintf("idle-%d", i), binaryOf(d)); err != nil {
			t.Fatal(err)
		}
	}
	const writers, edits = 4, 1000
	chains := make([][]*core.Document, writers)
	batches := make([][][]core.ChangeRecord, writers)
	encs := make([][][]byte, writers)
	for w := range chains {
		prev := testDoc(t, "race")
		if err := l.PutDoc(fmt.Sprintf("race-%d", w), binaryOf(prev)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < edits; i++ {
			recs := []core.ChangeRecord{insertLeaf(t, fmt.Sprintf("n-%d", i))}
			if i > 0 {
				recs = append(recs, edit.RecordDelete(fmt.Sprintf("/n-%d", i-1)))
			}
			next, enc := edited(t, prev, recs...)
			chains[w], encs[w] = append(chains[w], next), append(encs[w], enc)
			batches[w] = append(batches[w], recs)
			prev = next
		}
	}

	stop := make(chan struct{})
	var snapper, editors sync.WaitGroup
	snaps := 0
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			snaps++
		}
	}()
	for w := range chains {
		editors.Add(1)
		go func(w int) {
			defer editors.Done()
			for i, d := range chains[w] {
				if err := l.EditDoc(fmt.Sprintf("race-%d", w), encs[w][i], binaryOf(d)); err != nil {
					t.Errorf("EditDoc: %v", err)
					return
				}
			}
		}(w)
	}
	editors.Wait()
	close(stop)
	snapper.Wait()
	if snaps == 0 {
		t.Fatal("no snapshot raced the edits")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := mustLoad(t, dir)
	for w, chain := range chains {
		got, ok := st.Docs[fmt.Sprintf("race-%d", w)]
		if !ok || !bytes.Equal(docBytes(t, got), docBytes(t, chain[edits-1])) {
			t.Fatalf("document race-%d differs from the live one after %d racing snapshots", w, snaps)
		}
	}
}
