package media

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Put(CaptureVideo("clip.vid", 4, 8, 8, 25, 1))
	s.Put(CaptureAudio("voice.aud", 100, 8000, 440, 2))
	s.Put(CaptureText("label.txt", "Story 3. Paintings", "en"))

	if err := SaveDir(s, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), s.Len())
	}
	for _, name := range s.Names() {
		a, _ := s.GetByName(name)
		b, ok := back.GetByName(name)
		if !ok {
			t.Errorf("%s missing after reload", name)
			continue
		}
		if a.ID != b.ID || a.Medium != b.Medium || !a.Descriptor.Equal(b.Descriptor) {
			t.Errorf("%s mismatch after reload", name)
		}
	}
	if err := back.VerifyAll(); err != nil {
		t.Error(err)
	}
}

func TestSaveDirAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Put(CaptureText("a.txt", "first corpus", "en"))
	if err := SaveDir(s, dir); err != nil {
		t.Fatal(err)
	}
	// Overwrite the directory with a different corpus: the manifest is
	// replaced through a temp file + rename, and no temp residue may
	// survive a successful save.
	s2 := NewStore()
	s2.Put(CaptureText("a.txt", "second corpus, re-pointing the name", "en"))
	s2.Put(CaptureImage("b.img", 4, 4, 3))
	if err := SaveDir(s2, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != manifestName && e.Name() != "blocks" {
			t.Fatalf("SaveDir left unexpected file %q", e.Name())
		}
	}
	blockEntries, err := os.ReadDir(filepath.Join(dir, "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range blockEntries {
		if filepath.Ext(e.Name()) != ".bin" {
			t.Fatalf("SaveDir left temp residue %q in blocks/", e.Name())
		}
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := back.GetByName("a.txt"); got == nil || got.ID != mustGet(t, s2, "a.txt").ID {
		t.Fatal("re-pointed name did not survive the atomic replace")
	}
	if _, ok := back.GetByName("b.img"); !ok {
		t.Fatal("new block missing after atomic replace")
	}
}

func mustGet(t *testing.T, s *Store, name string) *Block {
	t.Helper()
	b, ok := s.GetByName(name)
	if !ok {
		t.Fatalf("fixture block %q missing", name)
	}
	return b
}

func TestLoadDirDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	b := CaptureText("x.txt", "original content", "en")
	s.Put(b)
	if err := SaveDir(s, dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload on disk.
	path := filepath.Join(dir, "blocks", b.ID+".bin")
	if err := os.WriteFile(path, []byte("tampered!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Error("tampered payload loaded without error")
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory loaded")
	}
	// Unparseable manifest.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, manifestName), []byte("(junk"), 0o644)
	if _, err := LoadDir(dir); err == nil {
		t.Error("bad manifest loaded")
	}
	// Manifest referencing a missing payload.
	dir2 := t.TempDir()
	s := NewStore()
	blk := CaptureText("y.txt", "content", "en")
	s.Put(blk)
	if err := SaveDir(s, dir2); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir2, "blocks", blk.ID+".bin"))
	if _, err := LoadDir(dir2); err == nil {
		t.Error("missing payload loaded")
	}
}
