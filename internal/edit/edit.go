package edit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
)

// BrokenArc reports an arc whose source or destination no longer resolves.
type BrokenArc struct {
	// Carrier holds the arc; Index is its position in the syncarcs list.
	Carrier *core.Node
	Index   int
	Arc     core.SyncArc
	// Err is the resolution failure.
	Err error
}

func (b BrokenArc) String() string {
	return fmt.Sprintf("%s syncarcs[%d]: %v", b.Carrier.PathString(), b.Index, b.Err)
}

// CheckArcs resolves every explicit arc in the document and returns the
// broken ones, sorted by carrier path.
func CheckArcs(d *core.Document) []BrokenArc {
	var out []BrokenArc
	d.Root.Walk(func(n *core.Node) bool {
		arcs, err := n.Arcs()
		if err != nil {
			out = append(out, BrokenArc{Carrier: n, Index: -1,
				Err: fmt.Errorf("unparseable syncarcs: %w", err)})
			return true
		}
		for i, a := range arcs {
			if _, _, err := n.ResolveArc(a); err != nil {
				out = append(out, BrokenArc{Carrier: n, Index: i, Arc: a, Err: err})
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Carrier.PathString() != out[j].Carrier.PathString() {
			return out[i].Carrier.PathString() < out[j].Carrier.PathString()
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Result reports what an edit did to the document's arcs.
type Result struct {
	// Rewritten counts arcs whose paths were updated automatically.
	Rewritten int
	// Broken lists arcs the edit severed and could not repair.
	Broken []BrokenArc
}

// DeleteNode removes the subtree at path (relative to the root). Arcs from
// or to the removed subtree are severed; arcs carried inside it vanish with
// it. The severed arcs are reported so an interactive tool can warn.
func DeleteNode(d *core.Document, path string) (*Result, error) {
	n, err := d.Root.Resolve(path)
	if err != nil {
		return nil, err
	}
	if n.IsRoot() {
		return nil, fmt.Errorf("edit: cannot delete the root")
	}
	before := CheckArcs(d)
	parent := n.Parent()
	parent.RemoveChild(n.Index())
	d.NoteChange(core.Change{Kind: core.ChangeRemove, Node: n, Parent: parent})
	res := &Result{Broken: newlyBroken(before, CheckArcs(d))}
	return res, nil
}

// InsertNode places child under the composite node at parentPath, at
// position index (clamped).
func InsertNode(d *core.Document, parentPath string, index int, child *core.Node) (*Result, error) {
	parent, err := d.Root.Resolve(parentPath)
	if err != nil {
		return nil, err
	}
	if parent.Type.IsLeaf() {
		return nil, fmt.Errorf("edit: %s is a %v leaf", parent.PathString(), parent.Type)
	}
	if name := child.Name(); name != "" {
		for _, sib := range parent.Children() {
			if sib.Name() == name {
				return nil, fmt.Errorf("edit: %s already has a child named %q",
					parent.PathString(), name)
			}
		}
	}
	before := CheckArcs(d)
	parent.InsertChild(index, child)
	d.NoteChange(core.Change{Kind: core.ChangeInsert, Node: child, Parent: parent})
	return &Result{Broken: newlyBroken(before, CheckArcs(d))}, nil
}

// MoveNode detaches the subtree at fromPath and re-attaches it under the
// composite at toParentPath at position index. Arcs whose endpoints lie
// inside or outside the moved subtree are rewritten to the new relative
// paths where possible; arcs that cannot be rewritten are reported broken.
func MoveNode(d *core.Document, fromPath, toParentPath string, index int) (*Result, error) {
	n, err := d.Root.Resolve(fromPath)
	if err != nil {
		return nil, err
	}
	if n.IsRoot() {
		return nil, fmt.Errorf("edit: cannot move the root")
	}
	newParent, err := d.Root.Resolve(toParentPath)
	if err != nil {
		return nil, err
	}
	if newParent.Type.IsLeaf() {
		return nil, fmt.Errorf("edit: %s is a %v leaf", newParent.PathString(), newParent.Type)
	}
	// Reject moving a node into its own subtree.
	for p := newParent; p != nil; p = p.Parent() {
		if p == n {
			return nil, fmt.Errorf("edit: cannot move %s into its own subtree", fromPath)
		}
	}
	if name := n.Name(); name != "" {
		for _, sib := range newParent.Children() {
			if sib != n && sib.Name() == name {
				return nil, fmt.Errorf("edit: %s already has a child named %q",
					newParent.PathString(), name)
			}
		}
	}

	// Record resolved endpoint *nodes* of every arc before the move; the
	// nodes survive the move even though their paths change.
	type arcRecord struct {
		carrier          *core.Node
		arc              core.SyncArc
		srcNode, dstNode *core.Node
		resolved         bool
	}
	var records []arcRecord
	var carriersInOrder []*core.Node
	seenCarrier := map[*core.Node]bool{}
	d.Root.Walk(func(m *core.Node) bool {
		arcs, err := m.Arcs()
		if err != nil || len(arcs) == 0 {
			return true
		}
		if !seenCarrier[m] {
			seenCarrier[m] = true
			carriersInOrder = append(carriersInOrder, m)
		}
		for _, a := range arcs {
			rec := arcRecord{carrier: m, arc: a}
			if src, dst, err := m.ResolveArc(a); err == nil {
				rec.srcNode, rec.dstNode, rec.resolved = src, dst, true
			}
			records = append(records, rec)
		}
		return true
	})

	oldParent := n.Parent()
	oldParent.RemoveChild(n.Index())
	newParent.InsertChild(index, n)
	d.NoteChange(core.Change{Kind: core.ChangeMove, Node: n, Parent: newParent, OldParent: oldParent})

	// Rewrite arcs: recompute relative paths from each carrier to the
	// recorded endpoint nodes.
	res := &Result{}
	rewrittenByCarrier := map[*core.Node][]core.SyncArc{}
	for _, rec := range records {
		a := rec.arc
		if rec.resolved {
			newSrc := relativePath(rec.carrier, rec.srcNode)
			newDst := relativePath(rec.carrier, rec.dstNode)
			if newSrc != a.Source || newDst != a.Dest {
				a.Source, a.Dest = newSrc, newDst
				res.Rewritten++
			}
		}
		rewrittenByCarrier[rec.carrier] = append(rewrittenByCarrier[rec.carrier], a)
	}
	for _, carrier := range carriersInOrder {
		carrier.Attrs.Del("syncarcs")
		for _, a := range rewrittenByCarrier[carrier] {
			carrier.AddArc(a)
		}
	}
	res.Broken = CheckArcs(d)
	return res, nil
}

// RenameNode changes a node's name and rewrites every arc path that
// referenced it (or passed through it) so the document's arcs keep
// resolving to the same nodes.
func RenameNode(d *core.Document, path, newName string) (*Result, error) {
	n, err := d.Root.Resolve(path)
	if err != nil {
		return nil, err
	}
	if newName == "" {
		return nil, fmt.Errorf("edit: empty name")
	}
	if p := n.Parent(); p != nil {
		for _, sib := range p.Children() {
			if sib != n && sib.Name() == newName {
				return nil, fmt.Errorf("edit: sibling already named %q", newName)
			}
		}
	}
	// Record absolute endpoints, rename, then rewrite like MoveNode.
	type rec struct {
		carrier          *core.Node
		arc              core.SyncArc
		srcNode, dstNode *core.Node
		ok               bool
	}
	var records []rec
	var carriers []*core.Node
	seen := map[*core.Node]bool{}
	d.Root.Walk(func(m *core.Node) bool {
		arcs, err := m.Arcs()
		if err != nil || len(arcs) == 0 {
			return true
		}
		if !seen[m] {
			seen[m] = true
			carriers = append(carriers, m)
		}
		for _, a := range arcs {
			r := rec{carrier: m, arc: a}
			if src, dst, err := m.ResolveArc(a); err == nil {
				r.srcNode, r.dstNode, r.ok = src, dst, true
			}
			records = append(records, r)
		}
		return true
	})

	n.SetName(newName)
	d.NoteChange(core.Change{Kind: core.ChangeRename, Node: n})

	res := &Result{}
	byCarrier := map[*core.Node][]core.SyncArc{}
	for _, r := range records {
		a := r.arc
		if r.ok {
			newSrc := relativePath(r.carrier, r.srcNode)
			newDst := relativePath(r.carrier, r.dstNode)
			if newSrc != a.Source || newDst != a.Dest {
				a.Source, a.Dest = newSrc, newDst
				res.Rewritten++
			}
		}
		byCarrier[r.carrier] = append(byCarrier[r.carrier], a)
	}
	for _, carrier := range carriers {
		carrier.Attrs.Del("syncarcs")
		for _, a := range byCarrier[carrier] {
			carrier.AddArc(a)
		}
	}
	res.Broken = CheckArcs(d)
	return res, nil
}

// SetAttr assigns an attribute on the node at path and records the change
// so incremental consumers can invalidate precisely. Renames must go through
// RenameNode and arcs through AddArc/RemoveArc, which keep arc paths
// resolving.
func SetAttr(d *core.Document, path, name string, v attr.Value) error {
	n, err := d.Root.Resolve(path)
	if err != nil {
		return err
	}
	if name == "name" {
		return fmt.Errorf("edit: use RenameNode to change names")
	}
	if name == "syncarcs" {
		return fmt.Errorf("edit: use AddArc/RemoveArc to change arcs")
	}
	if name == "styledict" || name == "channeldict" {
		// Writing the raw attribute would bypass the document's decoded
		// dictionaries and the global-change record they require.
		return fmt.Errorf("edit: use Document.SetStyles/SetChannels to change %s", name)
	}
	if err := codec.CheckAttrName(name); err != nil {
		// A document the text form cannot render could not be served
		// to a text client, nor recovered from its binary snapshot.
		return fmt.Errorf("edit: %w", err)
	}
	n.Attrs.Set(name, v)
	d.NoteChange(core.Change{Kind: core.ChangeAttr, Node: n, Attr: name})
	return nil
}

// AddArc appends an explicit synchronization arc to the node at path. The
// arc must resolve from that node.
func AddArc(d *core.Document, path string, a core.SyncArc) error {
	n, err := d.Root.Resolve(path)
	if err != nil {
		return err
	}
	if err := a.Validate(); err != nil {
		return fmt.Errorf("edit: %s: %w", n.PathString(), err)
	}
	if _, _, err := n.ResolveArc(a); err != nil {
		return fmt.Errorf("edit: %s: %w", n.PathString(), err)
	}
	n.AddArc(a)
	d.NoteChange(core.Change{Kind: core.ChangeArcs, Node: n})
	return nil
}

// RemoveArc deletes the index'th arc of the node at path.
func RemoveArc(d *core.Document, path string, index int) error {
	n, err := d.Root.Resolve(path)
	if err != nil {
		return err
	}
	arcs, err := n.Arcs()
	if err != nil {
		return fmt.Errorf("edit: %s: %w", n.PathString(), err)
	}
	if index < 0 || index >= len(arcs) {
		return fmt.Errorf("edit: %s has no syncarcs[%d]", n.PathString(), index)
	}
	n.Attrs.Del("syncarcs")
	for i, a := range arcs {
		if i != index {
			n.AddArc(a)
		}
	}
	d.NoteChange(core.Change{Kind: core.ChangeArcs, Node: n})
	return nil
}

// relativePath computes a relative path from `from` to `to` using parent
// steps and named/positional components, such that from.Resolve(path) == to.
func relativePath(from, to *core.Node) string {
	if from == to {
		return ""
	}
	// Collect ancestor chains.
	anc := func(n *core.Node) []*core.Node {
		var chain []*core.Node
		for m := n; m != nil; m = m.Parent() {
			chain = append(chain, m)
		}
		return chain
	}
	fa, ta := anc(from), anc(to)
	// Find lowest common ancestor.
	inFrom := map[*core.Node]int{}
	for i, m := range fa {
		inFrom[m] = i
	}
	lcaToIdx := -1
	var lca *core.Node
	for i, m := range ta {
		if _, ok := inFrom[m]; ok {
			lca, lcaToIdx = m, i
			break
		}
	}
	if lca == nil {
		// Different trees; fall back to an absolute path.
		return to.PathString()
	}
	var parts []string
	for i := 0; i < inFrom[lca]; i++ {
		parts = append(parts, "..")
	}
	// Descend from the LCA to `to`.
	for i := lcaToIdx - 1; i >= 0; i-- {
		m := ta[i]
		if name := m.Name(); name != "" {
			parts = append(parts, name)
		} else {
			parts = append(parts, fmt.Sprintf("#%d", m.Index()))
		}
	}
	return strings.Join(parts, "/")
}

func newlyBroken(before, after []BrokenArc) []BrokenArc {
	key := func(b BrokenArc) string {
		return fmt.Sprintf("%p#%d", b.Carrier, b.Index)
	}
	prev := map[string]bool{}
	for _, b := range before {
		prev[key(b)] = true
	}
	var out []BrokenArc
	for _, b := range after {
		if !prev[key(b)] {
			out = append(out, b)
		}
	}
	return out
}
