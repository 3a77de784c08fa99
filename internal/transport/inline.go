// Package transport implements document interchange: "The tree is a
// human-readable document that can be passed from one location to another
// with or without the underlying data" (section 5). A length-prefixed TCP
// protocol moves documents and data blocks between a server and clients,
// standing in for the Amoeba-based distributed system of section 6, which
// this reproduction does not have.
//
// Two transport shapes matter for the paper's claims:
//
//   - structure-only: the tree travels alone; external nodes keep their
//     file attributes and the receiver resolves them against its own (or a
//     remote) store;
//   - inlined: external nodes are converted to immediate nodes carrying the
//     payload, "for transporting (large amounts of) data across
//     environments that have no common storage server" (section 5.1).
package transport

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
)

// Inline converts every resolvable external node of a clone of doc into an
// immediate node carrying the block payload, resolving file attributes
// through lookup (a store's GetByName, a Backend's GetBlock); the returned
// blocks are only read. Nodes whose file attribute cannot be resolved are
// left external (the receiver may have its own store); strict mode turns
// that into an error.
func Inline(doc *core.Document, lookup func(name string) (*media.Block, bool), strict bool) (*core.Document, error) {
	clone := doc.Clone()
	var err error
	clone.Root.Walk(func(n *core.Node) bool {
		if err != nil || n.Type != core.Ext {
			return err == nil
		}
		file, ok := clone.FileOf(n)
		if !ok {
			if strict {
				err = fmt.Errorf("transport: %s has no file attribute", n.PathString())
			}
			return err == nil
		}
		blk, ok := lookup(file)
		if !ok {
			if strict {
				err = fmt.Errorf("transport: block %q not in store", file)
			}
			return err == nil
		}
		n.Type = core.Imm
		n.Data = blk.Payload
		n.Attrs.Del("file")
		n.Attrs.Del("slice") // ranges were relative to the external file
		n.Attrs.Set("medium", attr.ID(blk.Medium.String()))
		// Carry the descriptor so the receiver can rebuild its store.
		descItems := make([]attr.Item, 0, blk.Descriptor.Len())
		for _, p := range blk.Descriptor.Pairs() {
			descItems = append(descItems, attr.Named(p.Name, p.Value))
		}
		n.Attrs.Set("descriptor", attr.ListOf(descItems...))
		n.Attrs.Set("origname", attr.String(blk.Name))
		return true
	})
	if err != nil {
		return nil, err
	}
	if refreshErr := clone.Refresh(); refreshErr != nil {
		return nil, refreshErr
	}
	return clone, nil
}

// Extract reverses Inline on a clone of doc: immediate nodes carrying an
// "origname" marker are converted back to external nodes and their payloads
// deposited into store.
func Extract(doc *core.Document, store *media.Store) (*core.Document, error) {
	clone := doc.Clone()
	var err error
	clone.Root.Walk(func(n *core.Node) bool {
		if err != nil || n.Type != core.Imm {
			return err == nil
		}
		name, ok := n.Attrs.GetString("origname")
		if !ok {
			return true
		}
		mediumID, _ := n.Attrs.GetID("medium")
		medium, parseErr := core.ParseMedium(mediumID)
		if parseErr != nil {
			err = fmt.Errorf("transport: %s: %w", n.PathString(), parseErr)
			return false
		}
		var desc attr.List
		if items, ok := n.Attrs.GetList("descriptor"); ok {
			for _, it := range items {
				if it.Name == "" {
					err = fmt.Errorf("transport: %s: unnamed descriptor entry", n.PathString())
					return false
				}
				desc.Set(it.Name, it.Value)
			}
		}
		blk := media.NewBlock(name, medium, n.Data, desc)
		if _, err = store.Put(blk); err != nil {
			err = fmt.Errorf("transport: %s: %w", n.PathString(), err)
			return false
		}
		n.Type = core.Ext
		n.Data = nil
		n.Attrs.Set("file", attr.String(name))
		n.Attrs.Del("descriptor")
		n.Attrs.Del("origname")
		n.Attrs.Del("medium")
		return true
	})
	if err != nil {
		return nil, err
	}
	if refreshErr := clone.Refresh(); refreshErr != nil {
		return nil, refreshErr
	}
	return clone, nil
}
