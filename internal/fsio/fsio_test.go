package fsio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// onlyFile fails the test unless dir holds exactly the one named file —
// in particular, no staging file.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	dents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dents) != 1 || dents[0].Name() != name {
		var names []string
		for _, de := range dents {
			names = append(names, de.Name())
		}
		t.Errorf("directory holds %v, want only %q", names, name)
	}
}

// TestReplaceInPlaceIsAtomic replaces one file over and over while a
// reader polls it: every read sees one whole version — the old content
// stays readable until the rename — every other name that ever appears in
// the directory is a staging file by IsTemp, and none is left at the end.
func TestReplaceInPlaceIsAtomic(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("Windows refuses to rename over a file a reader holds open")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "target.bin")
	versions := [][]byte{bytes.Repeat([]byte{'a'}, 64<<10), bytes.Repeat([]byte{'b'}, 48<<10)}
	if err := WriteFileAtomic(path, versions[0], 0o644); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("target unreadable mid-replace: %v", err)
				return
			}
			if !bytes.Equal(got, versions[0]) && !bytes.Equal(got, versions[1]) {
				t.Errorf("read a torn file: %d bytes starting %q", len(got), got[:min(len(got), 8)])
				return
			}
			dents, _ := os.ReadDir(dir)
			for _, de := range dents {
				if name := de.Name(); name != "target.bin" && !IsTemp(name) {
					t.Errorf("%q appeared beside the target and IsTemp does not claim it", name)
					return
				}
			}
		}
	}()
	for i := 1; i <= 40; i++ {
		write := WriteFileAtomic
		if i%2 == 0 {
			write = WriteFileNoDirSync
		}
		if err := write(path, versions[i%2], 0o600); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	reader.Wait()

	onlyFile(t, dir, "target.bin")
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o600 {
		t.Errorf("mode = %v, %v; want 0600", info.Mode(), err)
	}
}

// TestFailedWriteLeavesNoResidue: a write that cannot complete reports an
// error, keeps whatever was there before, and cleans up its staging file.
func TestFailedWriteLeavesNoResidue(t *testing.T) {
	t.Run("rename refused", func(t *testing.T) {
		dir := t.TempDir()
		// The target is a non-empty directory: staging succeeds, the
		// rename cannot.
		target := filepath.Join(dir, "occupied")
		if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(target, []byte("new"), 0o644); err == nil {
			t.Fatal("replacing a non-empty directory succeeded")
		}
		onlyFile(t, dir, "occupied")
		onlyFile(t, target, "child")
	})
	t.Run("staging refused", func(t *testing.T) {
		dir := t.TempDir()
		// 250 bytes is a legal file name; the staging name beside it is not.
		name := strings.Repeat("n", 250)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Skipf("cannot create a 250-byte name here: %v", err)
		}
		if err := WriteFileNoDirSync(path, []byte("new"), 0o644); err == nil {
			t.Skip("this filesystem accepts names longer than 255 bytes")
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Errorf("old content = %q, %v after a failed replace", got, err)
		}
		onlyFile(t, dir, name)
	})
	t.Run("missing directory", func(t *testing.T) {
		missing := filepath.Join(t.TempDir(), "no", "such", "dir")
		if err := WriteFileAtomic(filepath.Join(missing, "f"), []byte("x"), 0o644); err == nil {
			t.Error("write into a missing directory succeeded")
		}
		if err := SyncDir(missing); err == nil && runtime.GOOS != "windows" {
			t.Error("SyncDir of a missing directory succeeded")
		}
	})
}

func TestIsTemp(t *testing.T) {
	for name, want := range map[string]bool{
		"abc.cmb.tmp-2522091228": true,
		"manifest.cmif.tmp-1":    true,
		"abc.cmb":                false,
		"snap-0001.snap.tmp":     false, // internal/durable's own staging suffix, swept there
	} {
		if got := IsTemp(name); got != want {
			t.Errorf("IsTemp(%q) = %v, want %v", name, got, want)
		}
	}
}
