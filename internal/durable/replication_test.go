package durable

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/media"
)

// shipAll drains a source log's full state through ResyncChunk with a
// deliberately tiny chunk budget, applying each chunk to the target —
// the rejoin path, end to end.
func shipAll(t *testing.T, src, dst *Log, maxBytes int) {
	t.Helper()
	cursor := ""
	for rounds := 0; ; rounds++ {
		if rounds > 10_000 {
			t.Fatal("resync did not terminate")
		}
		frames, next, err := src.ResyncChunk(cursor, maxBytes)
		if err != nil {
			t.Fatalf("ResyncChunk(%q): %v", cursor, err)
		}
		if len(frames) > 0 {
			if _, err := dst.AppendFrames(frames); err != nil {
				t.Fatalf("AppendFrames: %v", err)
			}
		}
		if next == "" {
			return
		}
		cursor = next
	}
}

// compareStates asserts two states hold the same documents, blocks and
// names.
func compareStates(t *testing.T, got, want *State) {
	t.Helper()
	if len(got.Docs) != len(want.Docs) {
		t.Fatalf("docs: got %d, want %d", len(got.Docs), len(want.Docs))
	}
	for name, wd := range want.Docs {
		gd, ok := got.Docs[name]
		if !ok {
			t.Fatalf("doc %q missing", name)
		}
		wb, err := codec.EncodeBinary(wd)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := codec.EncodeBinary(gd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("doc %q differs", name)
		}
	}
	if got.Store.Len() != want.Store.Len() {
		t.Fatalf("blocks: got %d, want %d", got.Store.Len(), want.Store.Len())
	}
	want.Store.Each(func(b *media.Block) bool {
		gb, ok := got.Store.Get(b.ID)
		if !ok {
			t.Fatalf("block %s missing", b.ID)
			return false
		}
		if !bytes.Equal(gb.Payload, b.Payload) {
			t.Fatalf("block %s payload differs", b.ID)
		}
		return true
	})
	wantNames := want.Store.Names()
	for _, name := range wantNames {
		wid, _ := want.Store.Resolve(name)
		gid, ok := got.Store.Resolve(name)
		if !ok || gid != wid {
			t.Fatalf("name %q: got %q (%v), want %q", name, gid, ok, wid)
		}
	}
	if gl, wl := len(got.Store.Names()), len(wantNames); gl != wl {
		t.Fatalf("names: got %d, want %d", gl, wl)
	}
}

func TestFrameHelpersRoundTrip(t *testing.T) {
	doc := testDoc(t, "frame")
	data, err := codec.EncodeBinary(doc)
	if err != nil {
		t.Fatal(err)
	}
	blk := media.CaptureText("frame.txt", "framed body", "en")
	bf, err := FramePutBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	stream = append(stream, FramePutDoc("frame", data)...)
	stream = append(stream, bf...)
	stream = append(stream, FrameRegisterName("frame.txt", blk.ID)...)
	stream = append(stream, encodeFrame(recDelBlk, []byte(blk.ID))...)

	recs, err := DecodeFrames(stream)
	if err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	wantOps := []byte{RecPutDoc, RecPutBlk, RecName, RecDelBlk}
	if len(recs) != len(wantOps) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantOps))
	}
	for i, r := range recs {
		if r.Op != wantOps[i] {
			t.Fatalf("record %d: op %d, want %d", i, r.Op, wantOps[i])
		}
	}
	if got := string(recs[0].Fields[0]); got != "frame" {
		t.Fatalf("putdoc key: %q", got)
	}
	if got := string(recs[1].Fields[0]); got != blk.ID {
		t.Fatalf("putblk key: %q, want %q", got, blk.ID)
	}
}

func TestDecodeFramesRejectsCorruption(t *testing.T) {
	frame := FramePutDoc("x", []byte("not-a-doc"))
	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeFrames(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt payload: err = %v, want ErrCorrupt", err)
	}
	// Truncated payload.
	if _, err := DecodeFrames(frame[:len(frame)-2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v, want ErrCorrupt", err)
	}
}

func TestAppendFramesAppliesAndSurvivesRecovery(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, srcSt := mustOpen(t, srcDir, Options{Sync: SyncNever})
	populate(t, src, srcSt)

	// Replica log: journal NOT attached (AppendFrames applies directly).
	dst, _, err := Open(dstDir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, src, dst, 256) // tiny chunks: many cursor resumptions
	compareStates(t, liveState(t, dst), liveState(t, src))

	// A doc put on the replica via frames must be visible and durable.
	doc := testDoc(t, "repl")
	data, err := codec.EncodeBinary(doc)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := dst.AppendFrames(FramePutDoc("repl", data))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs["repl"] == nil {
		t.Fatalf("docs=%v", docs)
	}

	if err := dst.Close(); err != nil {
		t.Fatalf("close replica: %v", err)
	}
	// The replica's directory must recover exactly what was shipped —
	// replication replays through the same path as crash recovery.
	re, reSt, err := Open(dstDir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	defer re.Close()
	if _, ok := reSt.Docs["repl"]; !ok {
		t.Fatal("replicated doc lost on recovery")
	}
	// Mirror the extra put on the source, then the two must match again.
	if err := src.PutDoc("repl", binaryOf(doc)); err != nil {
		t.Fatal(err)
	}
	compareStates(t, reSt, liveState(t, src))
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendFramesDedupes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	doc := testDoc(t, "dedupe")
	data, err := codec.EncodeBinary(doc)
	if err != nil {
		t.Fatal(err)
	}
	blk := media.CaptureText("dd.txt", "dedupe body", "en")
	bf, err := FramePutBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), FramePutDoc("dd", data)...), bf...)
	stream = append(stream, FrameRegisterName("dd.txt", blk.ID)...)

	if _, err := l.AppendFrames(stream); err != nil {
		t.Fatal(err)
	}
	before := l.Stats().Records
	if before != 3 {
		t.Fatalf("first batch appended %d records, want 3", before)
	}
	docs, err := l.AppendFrames(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Fatalf("re-put reported changed docs: %v", docs)
	}
	if after := l.Stats().Records; after != before {
		t.Fatalf("idempotent re-send appended %d records", after-before)
	}
}

// TestAppendFramesLeavesNoDescriptorMemo pins the descriptor memo's
// scope to one recovery: replicated puts, on a live log, parse without
// it, so a replica's memory does not grow by one entry per put — and
// keep none of it for a block deleted since.
func TestAppendFramesLeavesNoDescriptorMemo(t *testing.T) {
	dir := t.TempDir()
	l, st, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ids []string
	for i := 0; i < 200; i++ {
		b := media.CaptureText(fmt.Sprintf("put-%03d.txt", i), fmt.Sprintf("body %d", i), "en")
		b.Descriptor.Set(media.DescTitle, attr.String(fmt.Sprintf("story %d", i))) // one text per put
		frame, err := FramePutBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendFrames(frame); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b.ID)
	}
	for _, id := range ids[:100] {
		if _, err := l.AppendFrames(encodeFrame(recDelBlk, []byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(st.descMemo); n != 0 {
		t.Fatalf("descriptor memo holds %d entries after 200 replicated puts and 100 deletes, want 0", n)
	}
	if got := st.Store.Len(); got != 100 {
		t.Fatalf("store holds %d blocks, want 100", got)
	}
}

func TestAppendFramesRejectsBadBatchAtomically(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	doc := testDoc(t, "atomic")
	data, err := codec.EncodeBinary(doc)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := media.EncodeDescriptor(media.CaptureText("d.txt", "d", "en").Descriptor)
	if err != nil {
		t.Fatal(err)
	}
	// Each batch is a valid putdoc followed by a record that cannot
	// apply: a putdoc whose document bytes are garbage, or one of the
	// retired ops 2 (document delete), 5 and 6 (descriptor upsert and
	// delete). Nothing may append and nothing may apply.
	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"garbage-doc", FramePutDoc("bad", []byte("garbage"))},
		{"retired-deldoc", encodeFrame(2, []byte("ok"))},
		{"retired-putdesc", encodeFrame(5, []byte("d1"), desc)},
		{"retired-deldesc", encodeFrame(6, []byte("d1"))},
	} {
		stream := append(append([]byte(nil), FramePutDoc("ok", data)...), tc.bad...)
		if _, err := l.AppendFrames(stream); err == nil {
			t.Fatalf("%s: bad batch accepted", tc.name)
		}
		if n := l.Stats().Records; n != 0 {
			t.Fatalf("%s: bad batch appended %d records", tc.name, n)
		}
		if len(l.st.docs) != 0 {
			t.Fatalf("%s: bad batch applied its valid prefix", tc.name)
		}
		if err := l.Err(); err != nil {
			t.Fatalf("%s: bad batch stuck the log: %v", tc.name, err)
		}
	}
	// The log must still accept a good batch afterwards.
	if _, err := l.AppendFrames(FramePutDoc("ok", data)); err != nil {
		t.Fatalf("log unusable after rejected batch: %v", err)
	}
}

func TestResyncChunkCursorIsKeyed(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	defer l.Close()
	for i := 0; i < 6; i++ {
		d := testDoc(t, fmt.Sprint(i))
		if err := l.PutDoc(fmt.Sprintf("doc-%d", i), binaryOf(d)); err != nil {
			t.Fatal(err)
		}
	}
	var blocks []*media.Block
	for i := 0; i < 4; i++ {
		b := media.CaptureText(fmt.Sprintf("blk-%d.txt", i), fmt.Sprint("body ", i), "en")
		st.Store.Put(b)
		blocks = append(blocks, b)
	}

	frames, next, err := l.ResyncChunk("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if next == "" {
		t.Fatal("one-byte budget drained everything at once")
	}
	recs, err := DecodeFrames(frames)
	if err != nil || len(recs) != 1 {
		t.Fatalf("chunk: %d records, err %v", len(recs), err)
	}
	// A block (and its name) vanishing mid-walk must not derail
	// resumption: it is simply not shipped.
	victim := blocks[1]
	st.Store.Delete(victim.ID)
	seen := map[string]bool{}
	cursor := next
	for cursor != "" {
		if phase, _, _ := strings.Cut(cursor, "/"); phase != "docs" && phase != "blocks" && phase != "names" {
			t.Fatalf("cursor %q names no resync phase", cursor)
		}
		frames, cursor, err = l.ResyncChunk(cursor, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := DecodeFrames(frames)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			seen[fmt.Sprintf("%d/%s", r.Op, r.Fields[0])] = true
		}
	}
	for i := 1; i < 6; i++ {
		if !seen[fmt.Sprintf("%d/doc-%d", RecPutDoc, i)] {
			t.Fatalf("doc-%d not shipped after churn", i)
		}
	}
	for _, b := range blocks {
		blk, name := seen[fmt.Sprintf("%d/%s", RecPutBlk, b.ID)], seen[fmt.Sprintf("%d/%s", RecName, b.Name)]
		if b == victim && (blk || name) {
			t.Fatalf("block %s deleted mid-walk but shipped", b.Name)
		}
		if b != victim && !(blk && name) {
			t.Fatalf("block %s not shipped after churn (block %v, name %v)", b.Name, blk, name)
		}
	}

	// A cursor naming no phase of this walk — such as the retired
	// descriptor phase — is an error, not a panic.
	for _, bad := range []string{"descs/x", "descs/", "docs", "nope/x"} {
		if _, _, err := l.ResyncChunk(bad, 1); err == nil {
			t.Fatalf("cursor %q accepted", bad)
		}
	}
}

// TestFilterFramesRejectsCorruptFrame: FilterFrames reads a batch as
// DecodeFrames does, so a frame with one flipped bit fails the batch
// with ErrCorrupt — whether the filter would keep that frame or drop it.
func TestFilterFramesRejectsCorruptFrame(t *testing.T) {
	blk := media.CaptureText("alias.txt", "aliased body", "en")
	bad := FrameRegisterName("alias.txt", blk.ID)
	bad[len(bad)-1] ^= 0x01 // one bit of the id
	batch := append(FramePutDoc("ok", []byte("doc bytes")), bad...)
	for name, keep := range map[string]func(Record) bool{
		"keep-all":   func(Record) bool { return true },
		"drop-names": func(r Record) bool { return r.Op != RecName },
	} {
		if out, err := FilterFrames(batch, keep); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: FilterFrames returned %d bytes and err %v, want ErrCorrupt", name, len(out), err)
		}
	}
}
