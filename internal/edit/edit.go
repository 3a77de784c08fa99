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
	before := CheckArcs(d)
	if err := deleteNode(d, path, nil); err != nil {
		return nil, err
	}
	return &Result{Broken: newlyBroken(before, CheckArcs(d))}, nil
}

func deleteNode(d *core.Document, path string, u *undoLog) error {
	n, err := d.Root.Resolve(path)
	if err != nil {
		return err
	}
	if n.IsRoot() {
		return fmt.Errorf("edit: cannot delete the root")
	}
	parent := n.Parent()
	u.savePlace(n)
	parent.RemoveChild(n.Index())
	d.NoteChange(core.Change{Kind: core.ChangeRemove, Node: n, Parent: parent})
	return nil
}

// InsertNode places child under the composite node at parentPath, at
// position index (clamped), and reports the arcs the insert severed.
func InsertNode(d *core.Document, parentPath string, index int, child *core.Node) (*Result, error) {
	before := CheckArcs(d)
	if err := insertNode(d, parentPath, index, child, nil); err != nil {
		return nil, err
	}
	return &Result{Broken: newlyBroken(before, CheckArcs(d))}, nil
}

func insertNode(d *core.Document, parentPath string, index int, child *core.Node, u *undoLog) error {
	parent, err := d.Root.Resolve(parentPath)
	if err != nil {
		return err
	}
	if parent.Type.IsLeaf() {
		return fmt.Errorf("edit: %s is a %v leaf", parent.PathString(), parent.Type)
	}
	if name := child.Name(); name != "" {
		for _, sib := range parent.Children() {
			if sib.Name() == name {
				return fmt.Errorf("edit: %s already has a child named %q",
					parent.PathString(), name)
			}
		}
	}
	u.savePlace(child)
	parent.InsertChild(index, child)
	d.NoteChange(core.Change{Kind: core.ChangeInsert, Node: child, Parent: parent})
	return nil
}

// MoveNode detaches the subtree at fromPath and re-attaches it under the
// composite at toParentPath at position index. Arcs whose endpoints lie
// inside or outside the moved subtree are rewritten to the new relative
// paths where possible; arcs that cannot be rewritten are reported broken.
func MoveNode(d *core.Document, fromPath, toParentPath string, index int) (*Result, error) {
	rewritten, err := moveNode(d, fromPath, toParentPath, index, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Rewritten: rewritten, Broken: CheckArcs(d)}, nil
}

func moveNode(d *core.Document, fromPath, toParentPath string, index int, u *undoLog) (int, error) {
	n, err := d.Root.Resolve(fromPath)
	if err != nil {
		return 0, err
	}
	if n.IsRoot() {
		return 0, fmt.Errorf("edit: cannot move the root")
	}
	newParent, err := d.Root.Resolve(toParentPath)
	if err != nil {
		return 0, err
	}
	if newParent.Type.IsLeaf() {
		return 0, fmt.Errorf("edit: %s is a %v leaf", newParent.PathString(), newParent.Type)
	}
	// Reject moving a node into its own subtree.
	for p := newParent; p != nil; p = p.Parent() {
		if p == n {
			return 0, fmt.Errorf("edit: cannot move %s into its own subtree", fromPath)
		}
	}
	if name := n.Name(); name != "" {
		for _, sib := range newParent.Children() {
			if sib != n && sib.Name() == name {
				return 0, fmt.Errorf("edit: %s already has a child named %q",
					newParent.PathString(), name)
			}
		}
	}
	return keepArcsResolving(d, u, func() {
		oldParent := n.Parent()
		u.savePlace(n)
		oldParent.RemoveChild(n.Index())
		newParent.InsertChild(index, n)
		d.NoteChange(core.Change{Kind: core.ChangeMove, Node: n, Parent: newParent, OldParent: oldParent})
	}), nil
}

// RenameNode changes a node's name and rewrites every arc path that
// referenced it (or passed through it) so the document's arcs keep
// resolving to the same nodes.
func RenameNode(d *core.Document, path, newName string) (*Result, error) {
	rewritten, err := renameNode(d, path, newName, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Rewritten: rewritten, Broken: CheckArcs(d)}, nil
}

func renameNode(d *core.Document, path, newName string, u *undoLog) (int, error) {
	n, err := d.Root.Resolve(path)
	if err != nil {
		return 0, err
	}
	if newName == "" {
		return 0, fmt.Errorf("edit: empty name")
	}
	if p := n.Parent(); p != nil {
		for _, sib := range p.Children() {
			if sib != n && sib.Name() == newName {
				return 0, fmt.Errorf("edit: sibling already named %q", newName)
			}
		}
	}
	return keepArcsResolving(d, u, func() {
		u.saveAttrs(n)
		n.SetName(newName)
		d.NoteChange(core.Change{Kind: core.ChangeRename, Node: n})
	}), nil
}

// keepArcsResolving runs change, a move or rename that shifts relative
// paths, and then rewrites every arc in the document so it resolves to
// the nodes it resolved to before. It records each arc's endpoint *nodes*
// first — they survive the change even though their paths do not — and
// reports how many arcs it rewrote. Arcs that did not resolve before are
// kept as they were.
func keepArcsResolving(d *core.Document, u *undoLog, change func()) int {
	type endpoints struct {
		arc      core.SyncArc
		src, dst *core.Node // nil: the arc did not resolve
	}
	type carrier struct {
		node *core.Node
		arcs []endpoints
	}
	var carriers []carrier
	d.Root.Walk(func(m *core.Node) bool {
		arcs, err := m.Arcs()
		if err != nil || len(arcs) == 0 {
			return true
		}
		c := carrier{node: m, arcs: make([]endpoints, len(arcs))}
		for i, a := range arcs {
			c.arcs[i].arc = a
			if src, dst, err := m.ResolveArc(a); err == nil {
				c.arcs[i].src, c.arcs[i].dst = src, dst
			}
		}
		carriers = append(carriers, c)
		return true
	})

	change()

	rewritten := 0
	for _, c := range carriers {
		u.saveAttrs(c.node)
		c.node.Attrs.Del("syncarcs")
		for _, e := range c.arcs {
			a := e.arc
			if e.src != nil {
				src, dst := relativePath(c.node, e.src), relativePath(c.node, e.dst)
				if src != a.Source || dst != a.Dest {
					a.Source, a.Dest = src, dst
					rewritten++
				}
			}
			c.node.AddArc(a)
		}
	}
	return rewritten
}

// SetAttr assigns an attribute on the node at path and records the change
// so incremental consumers can invalidate precisely. Renames must go through
// RenameNode and arcs through AddArc/RemoveArc, which keep arc paths
// resolving.
func SetAttr(d *core.Document, path, name string, v attr.Value) error {
	return setAttr(d, path, name, v, nil)
}

func setAttr(d *core.Document, path, name string, v attr.Value, u *undoLog) error {
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
	u.saveAttrs(n)
	n.Attrs.Set(name, v)
	d.NoteChange(core.Change{Kind: core.ChangeAttr, Node: n, Attr: name})
	return nil
}

// AddArc appends an explicit synchronization arc to the node at path. The
// arc must resolve from that node.
func AddArc(d *core.Document, path string, a core.SyncArc) error {
	return addArc(d, path, a, nil)
}

func addArc(d *core.Document, path string, a core.SyncArc, u *undoLog) error {
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
	u.saveAttrs(n)
	n.AddArc(a)
	d.NoteChange(core.Change{Kind: core.ChangeArcs, Node: n})
	return nil
}

// RemoveArc deletes the index'th arc of the node at path.
func RemoveArc(d *core.Document, path string, index int) error {
	return removeArc(d, path, index, nil)
}

func removeArc(d *core.Document, path string, index int, u *undoLog) error {
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
	u.saveAttrs(n)
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
