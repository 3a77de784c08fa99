package core

// The change log makes documents observable: every structured edit appends a
// Change record, and consumers (the incremental scheduler, caches) keep a
// cursor into the log to learn what happened since they last looked. Edits
// performed through internal/edit and the cmif facade are recorded; tools
// that mutate the tree directly through Root must call NoteGlobalChange (or
// re-derive from scratch), since the document cannot see those writes.

// ChangeKind classifies one recorded edit.
type ChangeKind int

const (
	// ChangeAttr records that an attribute changed on Node. Attr names it.
	// Inheritable attributes affect the node's whole subtree.
	ChangeAttr ChangeKind = iota
	// ChangeArcs records that Node's explicit synchronization arcs changed
	// (one added, removed or rewritten).
	ChangeArcs
	// ChangeInsert records that the subtree rooted at Node was inserted
	// under Parent.
	ChangeInsert
	// ChangeRemove records that the subtree rooted at Node was detached
	// from Parent (Node is the now-detached subtree root).
	ChangeRemove
	// ChangeMove records that Node was reparented from OldParent to Parent.
	ChangeMove
	// ChangeRename records that Node's name changed; arcs referencing it
	// were rewritten to keep resolving to the same nodes.
	ChangeRename
	// ChangeGlobal records a document-wide input change (channel or style
	// dictionary, or an untracked direct tree mutation). Consumers must
	// re-derive everything.
	ChangeGlobal
)

func (k ChangeKind) String() string {
	switch k {
	case ChangeAttr:
		return "attr"
	case ChangeArcs:
		return "arcs"
	case ChangeInsert:
		return "insert"
	case ChangeRemove:
		return "remove"
	case ChangeMove:
		return "move"
	case ChangeRename:
		return "rename"
	case ChangeGlobal:
		return "global"
	default:
		return "change(?)"
	}
}

// Change is one recorded edit.
type Change struct {
	Kind ChangeKind
	// Node is the edited node (for ChangeRemove: the detached subtree root).
	Node *Node
	// Parent is the (new) parent for insert/remove/move records.
	Parent *Node
	// OldParent is the previous parent for move records.
	OldParent *Node
	// Attr is the changed attribute's name for ChangeAttr records.
	Attr string
}

// NoteChange appends a change record and advances the generation.
func (d *Document) NoteChange(c Change) { d.changes = append(d.changes, c) }

// NoteGlobalChange records a document-wide invalidation. Call it after
// mutating the tree directly through Root, so incremental consumers know
// their derived state is stale.
func (d *Document) NoteGlobalChange() { d.NoteChange(Change{Kind: ChangeGlobal}) }

// Generation identifies the document's edit state: it advances by one per
// recorded change, trimmed or not. Equal generations mean no recorded
// edits in between.
func (d *Document) Generation() uint64 { return d.trimmed + uint64(len(d.changes)) }

// ChangesSince returns the change records appended after generation gen.
// The slice aliases the log; callers must not mutate it. Records below
// the trimmed point are gone, so a gen before it answers one ChangeGlobal:
// a consumer that fell behind re-derives everything instead of missing
// an edit.
func (d *Document) ChangesSince(gen uint64) []Change {
	switch {
	case gen < d.trimmed:
		return []Change{{Kind: ChangeGlobal}}
	case gen >= d.Generation():
		return nil
	}
	return d.changes[gen-d.trimmed:]
}

// TrimChanges drops every change record while keeping the generation. An
// owner whose consumers have all read up to Generation() calls it, so the
// log — and the detached subtrees its remove records hold — does not
// grow with the edits a long-lived document absorbs.
func (d *Document) TrimChanges() {
	d.trimmed = d.Generation()
	d.changes = nil
}

// CutChanges drops the records appended after generation gen, for an
// applier taking back a batch it could not finish; gen is a generation
// the document had since its last trim.
func (d *Document) CutChanges(gen uint64) {
	keep := int(gen - d.trimmed)
	clear(d.changes[keep:])
	d.changes = d.changes[:keep]
}
