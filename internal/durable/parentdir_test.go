package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
)

// parentDir is a data directory written by the oldest writer inside the
// compatibility window, a snapshot and a WAL tail between them holding
// every op that writer emits. testdata/genparentdir.go wrote it.
const parentDir = "testdata/parent-dir"

// clip is genparentdir's large block: size bytes from a fixed linear
// congruential sequence, with the 16 bytes at edit inverted (none when
// edit is negative).
func clip(name string, size, edit int) *media.Block {
	p := make([]byte, size)
	x := uint32(2463534242)
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	for i := edit; i >= 0 && i < edit+16; i++ {
		p[i] ^= 0xff
	}
	return media.NewBlock(name, core.MediumVideo, p, attr.List{})
}

func TestParentDirRecovers(t *testing.T) {
	ops := dirOps(t, parentDir)
	for _, op := range []byte{recPutDoc, recPutBlk, recDelBlk, recName, recChunk, recPutBlkC, recEditDoc} {
		if ops[op] == 0 {
			t.Fatalf("fixture holds no op-%d record, so it covers less than its writer emits (ops %v)", op, ops)
		}
	}

	got, err := Load(parentDir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	news, _ := edited(t, testDoc(t, "news"), setDuration(t, "/clip", 4000))
	late, _ := edited(t, testDoc(t, "late"), insertLeaf(t, "extra"))
	if len(got.Docs) != 2 {
		t.Fatalf("documents: got %d, want news and late", len(got.Docs))
	}
	for name, want := range map[string]*core.Document{"news": news, "late": late} {
		d, ok := got.Docs[name]
		if !ok {
			t.Fatalf("document %q missing", name)
		}
		if string(docBytes(t, d)) != string(docBytes(t, want)) {
			t.Fatalf("document %q differs from what was written", name)
		}
	}

	text := func(name, body string) *media.Block { return media.CaptureText(name, body, "en") }
	names := map[string]*media.Block{
		"story-0.txt": text("story-0.txt", "rewritten"),
		"story-1.txt": text("story-1.txt", "rewritten after the snapshot"),
		"story-2.txt": text("story-2.txt", "story body 2"),
		"late.txt":    text("late.txt", "after the snapshot"),
		"clip-a.vid":  clip("clip-a.vid", 32<<10, -1),
		"clip-b.vid":  clip("clip-b.vid", 32<<10, 24<<10),
	}
	for name, want := range names {
		blk, ok := got.Store.GetByName(name)
		if !ok || blk.ID != want.ID || string(blk.Payload) != string(want.Payload) {
			t.Fatalf("name %q: resolves to another block (ok=%v)", name, ok)
		}
	}
	if n := len(got.Store.Names()); n != len(names) {
		t.Fatalf("names: got %d, want %d", n, len(names))
	}
	// The re-pointed names' first blocks stay stored by their address;
	// the deleted blocks do not.
	for i := 0; i < 2; i++ {
		if _, ok := got.Store.Get(text(fmt.Sprintf("story-%d.txt", i), fmt.Sprintf("story body %d", i)).ID); !ok {
			t.Fatalf("re-pointed story-%d.txt's first block missing", i)
		}
	}
	for _, b := range []*media.Block{text("victim.txt", "doomed"), text("doomed.txt", "doomed after the snapshot")} {
		if _, ok := got.Store.Get(b.ID); ok {
			t.Fatalf("deleted block %s resurrected", b.Name)
		}
	}
	if n := got.Store.Len(); n != len(names)+2 {
		t.Fatalf("blocks: got %d, want %d", n, len(names)+2)
	}
	if err := got.Store.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// A writer that opens the directory and snapshots it keeps the same
	// state.
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
	checkEqual(t, got, mustLoad(t, dir))
}
