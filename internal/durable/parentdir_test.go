package durable

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/media"
)

// parentDir is a data directory written by the writers that still emitted
// the retired ops — document deletes and descriptor-database records —
// into both a snapshot and a WAL tail. testdata/genparentdir.go wrote it.
const parentDir = "testdata/parent-dir"

func TestParentDirRecovers(t *testing.T) {
	ops := dirOps(t, parentDir)
	for _, op := range []byte{recDelDoc, recPutDesc, recDelDesc} {
		if ops[op] == 0 {
			t.Fatalf("fixture holds no op-%d record, so it covers nothing (ops %v)", op, ops)
		}
	}

	got, err := Load(parentDir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Docs) != 2 {
		t.Fatalf("documents: got %d, want news and late", len(got.Docs))
	}
	for _, name := range []string{"news", "late"} {
		d, ok := got.Docs[name]
		if !ok {
			t.Fatalf("document %q missing", name)
		}
		gb, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := codec.EncodeBinary(testDoc(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(gb) != string(wb) {
			t.Fatalf("document %q differs from what was written", name)
		}
	}
	for _, name := range []string{"gone", "doomed"} {
		if _, ok := got.Docs[name]; ok {
			t.Fatalf("deleted document %q resurrected", name)
		}
	}

	names := map[string]string{
		"story-0.txt": "rewritten",
		"story-1.txt": "story body 1",
		"story-2.txt": "story body 2",
		"late.txt":    "after the snapshot",
	}
	for name, text := range names {
		id, ok := got.Store.Resolve(name)
		if want := media.CaptureText(name, text, "en").ID; !ok || id != want {
			t.Fatalf("name %q: resolves to %.12s (ok=%v), want %.12s", name, id, ok, want)
		}
	}
	if n := len(got.Store.Names()); n != len(names) {
		t.Fatalf("names: got %d, want %d", n, len(names))
	}
	// The re-pointed name's first block stays stored by its address.
	if _, ok := got.Store.Get(media.CaptureText("story-0.txt", "story body 0", "en").ID); !ok {
		t.Fatal("re-pointed name's first block missing")
	}
	if _, ok := got.Store.Get(media.CaptureText("victim.txt", "doomed", "en").ID); ok {
		t.Fatal("deleted block resurrected")
	}
	if n := got.Store.Len(); n != len(names)+1 {
		t.Fatalf("blocks: got %d, want %d", n, len(names)+1)
	}
	if err := got.Store.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// A writer that opens the directory and snapshots it keeps the same
	// state and writes none of the retired ops.
	dir := t.TempDir()
	entries, err := os.ReadDir(parentDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(parentDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after re-snapshot: %v", err)
	}
	checkEqual(t, got, again)
	ops = dirOps(t, dir)
	for _, op := range []byte{recDelDoc, recPutDesc, recDelDesc} {
		if ops[op] != 0 {
			t.Fatalf("re-snapshot wrote %d op-%d records", ops[op], op)
		}
	}
}
