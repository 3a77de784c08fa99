package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/attr"
)

// NodeType enumerates the four CMIF node types of section 5.1.
type NodeType int

const (
	// Seq executes its children sequentially in left-to-right order.
	Seq NodeType = iota
	// Par executes its children in parallel.
	Par
	// Ext is a leaf pointing at a data descriptor (and thus an external
	// data block) via a file attribute.
	Ext
	// Imm is a leaf containing data directly rather than a pointer;
	// "useful for encoding small amounts of data directly in a document or
	// for transporting data across environments that have no common
	// storage server".
	Imm
)

var nodeTypeNames = [...]string{"seq", "par", "ext", "imm"}

// String returns the node-type keyword used in the document syntax.
func (t NodeType) String() string {
	if t >= 0 && int(t) < len(nodeTypeNames) {
		return nodeTypeNames[t]
	}
	return fmt.Sprintf("nodetype(%d)", int(t))
}

// ParseNodeType maps a keyword to its NodeType.
func ParseNodeType(s string) (NodeType, error) {
	for i, n := range nodeTypeNames {
		if n == s {
			return NodeType(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown node type %q", s)
}

// IsLeaf reports whether the type is a data (leaf) node type.
func (t NodeType) IsLeaf() bool { return t == Ext || t == Imm }

// Node is one node of the CMIF document tree. Composite nodes (Seq, Par)
// carry children; leaves (Ext, Imm) carry a reference to, or a copy of, a
// single data block.
type Node struct {
	Type  NodeType
	Attrs attr.List
	// Data holds the payload of an Imm node. "The data is either text (the
	// default) or another medium, as indicated by attributes associated
	// with the node."
	Data []byte

	children []*Node
	parent   *Node
	index    int
}

// NewNode returns a node of the given type with no attributes.
func NewNode(t NodeType) *Node { return &Node{Type: t, index: -1} }

// NewSeq, NewPar, NewExt and NewImm are convenience constructors.
func NewSeq() *Node { return NewNode(Seq) }

// NewPar returns a new parallel composite node.
func NewPar() *Node { return NewNode(Par) }

// NewExt returns a new external (data-descriptor reference) leaf.
func NewExt() *Node { return NewNode(Ext) }

// NewImm returns a new immediate-data leaf holding data.
func NewImm(data []byte) *Node {
	n := NewNode(Imm)
	n.Data = data
	return n
}

// SetAttr binds an attribute on the node and returns the node, enabling
// fluent construction in authoring tools and tests.
func (n *Node) SetAttr(name string, v attr.Value) *Node {
	n.Attrs.Set(name, v)
	return n
}

// SetName assigns the node's name attribute. Names are optional and relative
// to their parent (section 5.2, Figure 7).
func (n *Node) SetName(name string) *Node {
	n.Attrs.Set("name", attr.ID(name))
	return n
}

// Name returns the node's name attribute, or "" if unnamed. Both ID and
// STRING values are accepted for authoring convenience.
func (n *Node) Name() string {
	if v, ok := n.Attrs.Get("name"); ok {
		if s, ok := v.Text(); ok {
			return s
		}
	}
	return ""
}

// AddChild appends child under n and returns n. Only composite nodes may
// have children; adding to a leaf panics, since that is a programming error
// rather than a document error (documents are checked by Validate).
func (n *Node) AddChild(child *Node) *Node {
	if n.Type.IsLeaf() {
		panic(fmt.Sprintf("core: cannot add child to %v leaf", n.Type))
	}
	if child.parent != nil {
		panic("core: node already has a parent")
	}
	child.parent = n
	child.index = len(n.children)
	n.children = append(n.children, child)
	return n
}

// GrowChildren makes room for k more children without reallocating, for
// a decoder that knows how many it is about to add.
func (n *Node) GrowChildren(k int) { n.children = slices.Grow(n.children, k) }

// Add appends several children and returns n.
func (n *Node) Add(children ...*Node) *Node {
	for _, c := range children {
		n.AddChild(c)
	}
	return n
}

// RemoveChild detaches the i'th child and returns it; it returns nil when i
// is out of range.
func (n *Node) RemoveChild(i int) *Node {
	if i < 0 || i >= len(n.children) {
		return nil
	}
	c := n.children[i]
	n.children = append(n.children[:i], n.children[i+1:]...)
	for j := i; j < len(n.children); j++ {
		n.children[j].index = j
	}
	c.parent = nil
	c.index = -1
	return c
}

// InsertChild places child at position i (clamped), reindexing siblings.
func (n *Node) InsertChild(i int, child *Node) {
	if n.Type.IsLeaf() {
		panic(fmt.Sprintf("core: cannot add child to %v leaf", n.Type))
	}
	if child.parent != nil {
		panic("core: node already has a parent")
	}
	if i < 0 {
		i = 0
	}
	if i > len(n.children) {
		i = len(n.children)
	}
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = child
	child.parent = n
	for j := i; j < len(n.children); j++ {
		n.children[j].index = j
	}
}

// Children returns the node's children in document order. The slice is
// shared; callers must not mutate it.
func (n *Node) Children() []*Node { return n.children }

// NumChildren reports the number of children.
func (n *Node) NumChildren() int { return len(n.children) }

// Child returns the i'th child or nil.
func (n *Node) Child(i int) *Node {
	if i < 0 || i >= len(n.children) {
		return nil
	}
	return n.children[i]
}

// Parent returns the node's parent, nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// Index returns the node's position among its siblings, -1 if detached.
func (n *Node) Index() int { return n.index }

// Root walks to the tree root. "The root node ... provides an implied timing
// reference point for all other nodes in the document."
func (n *Node) Root() *Node {
	for n.parent != nil {
		n = n.parent
	}
	return n
}

// IsRoot reports whether the node has no parent.
func (n *Node) IsRoot() bool { return n.parent == nil }

// Depth returns the number of ancestors (root has depth 0).
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// PrevSibling returns the sibling to the left, or nil. The benchmark
// module's author workload (bench/mark) is its caller.
func (n *Node) PrevSibling() *Node {
	if n.parent == nil {
		return nil
	}
	return n.parent.Child(n.index - 1)
}

// Walk visits n and every descendant in pre-order. Returning false from f
// prunes the subtree below the visited node.
func (n *Node) Walk(f func(*Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.children {
		c.Walk(f)
	}
}

// WalkPost visits every descendant and then n (post-order).
func (n *Node) WalkPost(f func(*Node)) {
	for _, c := range n.children {
		c.WalkPost(f)
	}
	f(n)
}

// Count returns the number of nodes in the subtree rooted at n.
func (n *Node) Count() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// Leaves returns the data (leaf) nodes of the subtree in document order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Type.IsLeaf() {
			out = append(out, m)
		}
		return true
	})
	return out
}

// PathString returns an absolute slash-separated path from the root to n,
// e.g. "/news/story-3/caption/intro". The root renders as "/". A component
// is the node's name if it has one, otherwise "#i" by sibling position.
func (n *Node) PathString() string {
	var buf [64]byte
	return string(n.AppendPath(buf[:0]))
}

// AppendPath appends PathString's rendering of n to buf and returns the
// extended buffer, for callers that want the bytes without the string.
func (n *Node) AppendPath(buf []byte) []byte {
	if n.parent == nil {
		return append(buf, '/')
	}
	if n.parent.parent != nil {
		buf = n.parent.AppendPath(buf)
	}
	buf = append(buf, '/')
	if name := n.Name(); name != "" {
		return append(buf, name...)
	}
	return strconv.AppendInt(append(buf, '#'), int64(n.index), 10)
}

// PathError reports a failure to resolve a relative path name.
type PathError struct {
	From *Node  // node the resolution started at
	Path string // the full path being resolved
	At   string // the component that failed
	Why  string
}

func (e *PathError) Error() string {
	return fmt.Sprintf("core: cannot resolve %q from %s: component %q: %s",
		e.Path, e.From.PathString(), e.At, e.Why)
}

// Resolve resolves a path name relative to n, per section 5.3.2: "the source
// field specifies a relative path name in the tree (by using named nodes)...
// The empty name specifies the current node itself."
//
// Path grammar:
//
//	""           the node itself
//	"."          the node itself
//	".."         the parent
//	"name"       the child named name (or "#i" for the i'th child)
//	"a/b/c"      components resolved left to right
//	"/a/b"       absolute: resolved from the root
func (n *Node) Resolve(path string) (*Node, error) { return n.ResolveVia(path, nil) }

// ResolveVia is Resolve with the child of p named name found by byName,
// when it is set: a caller's memo of the tree's names.
func (n *Node) ResolveVia(path string, byName func(p *Node, name string) *Node) (*Node, error) {
	cur := n
	rest := path
	if strings.HasPrefix(path, "/") {
		cur = n.Root()
		rest = strings.TrimPrefix(path, "/")
	}
	if rest == "" {
		return cur, nil
	}
	for _, comp := range strings.Split(rest, "/") {
		switch comp {
		case "", ".":
			continue
		case "..":
			if cur.parent == nil {
				return nil, &PathError{From: n, Path: path, At: comp, Why: "root has no parent"}
			}
			cur = cur.parent
		default:
			next := byName
			if next == nil || strings.HasPrefix(comp, "#") {
				next = (*Node).childByComponent
			}
			child := next(cur, comp)
			if child == nil {
				return nil, &PathError{From: n, Path: path, At: comp,
					Why: fmt.Sprintf("no such child of %s", cur.PathString())}
			}
			cur = child
		}
	}
	return cur, nil
}

// childByComponent finds a child by name or by "#i" positional reference.
func (n *Node) childByComponent(comp string) *Node {
	if strings.HasPrefix(comp, "#") {
		i, err := strconv.Atoi(comp[1:])
		if err != nil {
			return nil
		}
		return n.Child(i)
	}
	for _, c := range n.children {
		if c.Name() == comp {
			return c
		}
	}
	return nil
}

// FindByName returns the first node in the subtree (pre-order) whose name
// attribute equals name, or nil.
func (n *Node) FindByName(name string) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m.Name() == name {
			found = m
			return false
		}
		return true
	})
	return found
}

// Clone deep-copies the subtree rooted at n. The clone is detached (no
// parent) and shares no mutable state with the original.
func (n *Node) Clone() *Node {
	c := &Node{
		Type:  n.Type,
		Attrs: n.Attrs.Clone(),
		index: -1,
	}
	if n.Data != nil {
		c.Data = append([]byte(nil), n.Data...)
	}
	for _, child := range n.children {
		cc := child.Clone()
		cc.parent = c
		cc.index = len(c.children)
		c.children = append(c.children, cc)
	}
	return c
}

// String renders a one-line summary for diagnostics.
func (n *Node) String() string {
	name := n.Name()
	if name == "" {
		name = "(anon)"
	}
	return fmt.Sprintf("%s %s [%d children]", n.Type, name, len(n.children))
}
