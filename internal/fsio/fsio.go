// Package fsio holds the crash-safety filesystem primitives the
// persistence layers share: directory fsync and atomic file replacement.
// One implementation, so a portability fix lands everywhere at once.
package fsio

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// tempInfix sits between a target's base name and the random suffix of
// the temp file a write stages beside it: "<base>.tmp-<random>".
const tempInfix = ".tmp-"

// IsTemp reports whether a file name is one of WriteFileAtomic's or
// WriteFileNoDirSync's staging files. One that outlives its writer is the
// residue of a write killed before its rename; directory owners sweep
// such files when they open.
func IsTemp(name string) bool { return strings.Contains(name, tempInfix) }

// SyncDir flushes directory metadata, making a just-renamed or
// just-created file durable under its name. Windows cannot open
// directories for syncing — and NTFS journals metadata operations
// itself — so the rename is the commit point there and SyncDir is a
// no-op.
func SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// WriteFileAtomic replaces path's contents via a unique temp file, an
// fsync, an atomic rename and a directory sync, so a crash at any point
// leaves either the old file or the new one, never a torn mix.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if err := WriteFileNoDirSync(path, data, perm); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// WriteFileNoDirSync is WriteFileAtomic without the final directory
// sync, for callers replacing many files in one directory that batch a
// single SyncDir at the end — directory fsyncs dominate the cost of a
// multi-file save, and one covers every rename before it.
func WriteFileNoDirSync(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+tempInfix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
