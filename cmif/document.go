package cmif

import (
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/hyper"
	"repro/internal/units"
)

// Document is the facade's handle on one CMIF document: the tree root plus
// the style and channel dictionaries decoded from it. It wraps the internal
// representation; obtain one from Decode, Parse, Open, NewDocument,
// Client.Document or BuildNews.
type Document struct {
	doc *core.Document
}

// wrapDocument adopts an internal document (nil in, nil out).
func wrapDocument(d *core.Document) *Document {
	if d == nil {
		return nil
	}
	return &Document{doc: d}
}

// NewDocument wraps a freshly authored tree root, decoding its style and
// channel dictionaries.
func NewDocument(root *Node) (*Document, error) {
	d, err := core.NewDocument(root)
	if err != nil {
		return nil, err
	}
	return wrapDocument(d), nil
}

// Root returns the tree root for direct traversal and authoring.
func (d *Document) Root() *Node { return d.doc.Root }

// Refresh re-decodes the root dictionaries after the tree was edited
// through Root.
func (d *Document) Refresh() error { return d.doc.Refresh() }

// Clone deep-copies the document.
func (d *Document) Clone() *Document { return wrapDocument(d.doc.Clone()) }

// Issue is one validation finding (error or warning).
type Issue = core.Issue

// Severity alias and levels for Issue classification.
type Severity = core.Severity

// Issue severities.
const (
	// SeverityWarning marks findings a tool may ignore.
	SeverityWarning = core.Warning
	// SeverityError marks findings that make the document unusable.
	SeverityError = core.Error
)

// Errors filters issues down to error severity.
func Errors(issues []Issue) []Issue { return core.Errors(issues) }

// Warnings filters issues down to warning severity.
func Warnings(issues []Issue) []Issue { return core.Warnings(issues) }

// Validate walks the document and returns every finding, warnings
// included. Use Check for a pass/fail answer in the error taxonomy.
func (d *Document) Validate() []Issue { return d.doc.Validate() }

// Check validates the document and returns nil when it is usable, or a
// *ValidationError (carrying the full issue list) when validation found
// errors.
func (d *Document) Check() error { return validationError(d.doc.Validate()) }

// ExternalFiles returns the distinct (inherited) file attributes of the
// document's external leaves, in first-appearance order — the block list a
// player must resolve (PrefetchVia fetches it in batched round trips).
func (d *Document) ExternalFiles() []string { return d.doc.ExternalFiles() }

// Stats summarizes document structure (the paper's table-of-contents
// function).
type Stats = core.Stats

// Stats computes summary statistics over the tree.
func (d *Document) Stats() Stats { return d.doc.Stats() }

// Channels returns the document's channel dictionary.
func (d *Document) Channels() *ChannelDict { return d.doc.Channels() }

// SetChannels installs a channel dictionary on the root and re-decodes.
func (d *Document) SetChannels(cd *ChannelDict) { d.doc.SetChannels(cd) }

// Styles returns the document's style dictionary.
func (d *Document) Styles() *StyleDict { return d.doc.Styles() }

// SetStyles installs a style dictionary on the root and re-decodes.
func (d *Document) SetStyles(sd *StyleDict) { d.doc.SetStyles(sd) }

// EffectiveAttrs computes the attributes in force on node n: its own
// attributes with styles expanded and inheritable attributes filled in
// from ancestors.
func (d *Document) EffectiveAttrs(n *Node) (AttrList, error) {
	return d.doc.EffectiveAttrs(n)
}

// ChannelOf resolves the channel the node's data is directed to.
func (d *Document) ChannelOf(n *Node) (Channel, error) { return d.doc.ChannelOf(n) }

// FileOf returns the (inherited) file attribute naming the node's data
// descriptor, for external nodes.
func (d *Document) FileOf(n *Node) (string, bool) { return d.doc.FileOf(n) }

// DurationOf returns a leaf's presentation duration from its effective
// duration attribute, in that channel's units.
func (d *Document) DurationOf(n *Node) (units.Quantity, bool) { return d.doc.DurationOf(n) }

// FindByName returns the first node (pre-order) carrying the given name
// attribute, or nil.
func (d *Document) FindByName(name string) *Node { return d.doc.Root.FindByName(name) }

// ResolvePath resolves a node path (as used by synchronization arcs)
// relative to the root.
func (d *Document) ResolvePath(path string) (*Node, error) { return d.doc.Root.Resolve(path) }

// Text serializes the document in the conventional text form — the
// transportable, human-readable rendering.
func (d *Document) Text() (string, error) {
	data, err := Encode(d)
	return string(data), err
}

// --- structure editing (the Document Structure Mapping tool's edit ops) ---

// EditResult reports an edit's side effects on arc integrity.
type EditResult = edit.Result

// BrokenArc is one arc whose source path no longer resolves.
type BrokenArc = edit.BrokenArc

// CheckArcs lists arcs whose sources do not resolve anywhere in the
// document.
func (d *Document) CheckArcs() []BrokenArc { return edit.CheckArcs(d.doc) }

// DeleteNode removes the node at path, reporting arcs the removal broke.
func (d *Document) DeleteNode(path string) (*EditResult, error) {
	return edit.DeleteNode(d.doc, path)
}

// InsertNode inserts child under the composite at parentPath at the given
// index: a negative index inserts first, one at or past the end appends.
func (d *Document) InsertNode(parentPath string, index int, child *Node) (*EditResult, error) {
	return edit.InsertNode(d.doc, parentPath, index, child)
}

// MoveNode reparents the node at fromPath under toParentPath at index,
// rewriting relative arc paths that the move would otherwise break.
func (d *Document) MoveNode(fromPath, toParentPath string, index int) (*EditResult, error) {
	return edit.MoveNode(d.doc, fromPath, toParentPath, index)
}

// RenameNode changes the name attribute of the node at path, rewriting
// arcs that referred to the old name.
func (d *Document) RenameNode(path, newName string) (*EditResult, error) {
	return edit.RenameNode(d.doc, path, newName)
}

// SetNodeAttr assigns an attribute on the node at path. Unlike writing
// through Root, the change is recorded, so Plan.Reschedule can invalidate
// precisely. Names and arcs have dedicated methods.
func (d *Document) SetNodeAttr(path, name string, v Value) error {
	return edit.SetAttr(d.doc, path, name, v)
}

// AddArc appends an explicit synchronization arc to the node at path. The
// arc must resolve from that node.
func (d *Document) AddArc(path string, a SyncArc) error {
	return edit.AddArc(d.doc, path, a)
}

// RemoveArc deletes the index'th arc of the node at path.
func (d *Document) RemoveArc(path string, index int) error {
	return edit.RemoveArc(d.doc, path, index)
}

// --- conditional structure (the hypertext extension) ---

// Env binds the condition variables used by conditional nodes.
type Env = hyper.Env

// SetWhen marks a node conditional: it survives specialization only when
// cond (e.g. "lang=en") holds in the environment. Returns n for chaining.
func SetWhen(n *Node, cond string) *Node { return hyper.SetWhen(n, cond) }

// Variables lists the condition variables the document's conditional nodes
// test, sorted.
func (d *Document) Variables() []string { return hyper.Variables(d.doc) }

// Specialize returns a copy of the document with conditional branches
// resolved against env: one source document, one audience-specific view.
func (d *Document) Specialize(env Env) (*Document, error) {
	s, err := hyper.Specialize(d.doc, env)
	if err != nil {
		return nil, err
	}
	return wrapDocument(s), nil
}

// AttrList is an ordered attribute name/value list.
type AttrList = attr.List
