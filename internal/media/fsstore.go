package media

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/fsio"
)

// Filesystem persistence for block stores: payloads live in
// content-addressed files, and a CMIF manifest document records names,
// media and descriptors — the document structure describing the data, per
// the paper's separation of structure from payload.
//
// Layout:
//
//	dir/manifest.cmif      (seq (ext (name "...") (id "...") (medium ...)
//	                             (descriptor [...])) ...)
//	dir/blocks/<id>.bin    raw payloads
const manifestName = "manifest.cmif"

// SaveDir writes the store to dir, creating it if needed. The write is
// crash-safe: every payload file and the manifest go through a temp file,
// an fsync and an atomic rename, with the manifest renamed last — so a
// crash mid-save leaves either the previous manifest (naming only files
// that still exist) or the new one (naming only files already durable),
// never a torn manifest that bricks LoadDir.
func SaveDir(s *Store, dir string) error {
	blockDir := filepath.Join(dir, "blocks")
	if err := os.MkdirAll(blockDir, 0o755); err != nil {
		return fmt.Errorf("media: %w", err)
	}
	manifest := core.NewSeq().SetName("manifest")
	for _, name := range s.Names() {
		b, ok := s.GetByName(name)
		if !ok {
			continue
		}
		// Payload files skip the per-file directory sync; the single
		// SyncDir below makes them all durable before the manifest —
		// which names them — commits.
		if err := fsio.WriteFileNoDirSync(filepath.Join(blockDir, b.ID+".bin"), b.Payload, 0o644); err != nil {
			return fmt.Errorf("media: %w", err)
		}
		entry := core.NewExt().
			SetAttr("name", attr.String(b.Name)).
			SetAttr("id", attr.String(b.ID)).
			SetAttr("medium", attr.ID(b.Medium.String()))
		var items []attr.Item
		for _, p := range b.Descriptor.Pairs() {
			items = append(items, attr.Named(p.Name, p.Value))
		}
		entry.Attrs.Set("descriptor", attr.ListOf(items...))
		manifest.AddChild(entry)
	}
	if err := fsio.SyncDir(blockDir); err != nil {
		return fmt.Errorf("media: %w", err)
	}
	text, err := codec.EncodeNode(manifest, codec.WriteOptions{Form: codec.Conventional})
	if err != nil {
		return fmt.Errorf("media: %w", err)
	}
	if err := fsio.WriteFileAtomic(filepath.Join(dir, manifestName), []byte(text), 0o644); err != nil {
		return fmt.Errorf("media: %w", err)
	}
	return nil
}

// LoadDir reads a store previously written by SaveDir, verifying every
// payload against its content address. Payloads are read whole into
// heap slices.
func LoadDir(dir string) (*Store, error) {
	text, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("media: %w", err)
	}
	manifest, err := codec.ParseNode(string(text))
	if err != nil {
		return nil, fmt.Errorf("media: manifest: %w", err)
	}
	s := NewStore()
	for _, entry := range manifest.Children() {
		name, ok := entry.Attrs.GetString("name")
		if !ok {
			return nil, fmt.Errorf("media: manifest entry without name")
		}
		id, ok := entry.Attrs.GetString("id")
		if !ok {
			return nil, fmt.Errorf("media: manifest entry %q without id", name)
		}
		mediumID, _ := entry.Attrs.GetID("medium")
		medium, err := core.ParseMedium(mediumID)
		if err != nil {
			return nil, fmt.Errorf("media: manifest entry %q: %w", name, err)
		}
		var desc attr.List
		if items, ok := entry.Attrs.GetList("descriptor"); ok {
			for _, it := range items {
				if it.Name == "" {
					return nil, fmt.Errorf("media: manifest entry %q has unnamed descriptor attr", name)
				}
				desc.Set(it.Name, it.Value)
			}
		}
		payload, err := os.ReadFile(filepath.Join(dir, "blocks", id+".bin"))
		if err != nil {
			return nil, fmt.Errorf("media: manifest entry %q: %w", name, err)
		}
		b := NewBlock(name, medium, payload, desc)
		if b.ID != id {
			return nil, fmt.Errorf("media: block %q content address mismatch (%s != %s)",
				name, b.ID[:12], id[:12])
		}
		if _, err := s.Put(b); err != nil {
			return nil, err
		}
	}
	return s, nil
}
