package core

import "repro/internal/units"

// Resolved is what a node's attributes come to, its styles expanded and
// its inheritable attributes filled in from its ancestors: the answers
// ChannelOf, FileOf, DurationOf, MediumOf and Node.Arcs give, worked out
// once. A broken style reference leaves the lookups' zero answers.
type Resolved struct {
	Node *Node
	// Channel is the node's channel, shared with the root's channel
	// dictionary; nil when it does not resolve.
	Channel *Channel
	// File is the (inherited) file attribute naming the data descriptor.
	File string
	// Duration is a leaf's own presentation duration, in its units.
	Duration units.Quantity
	// Medium is the node's medium attribute; text when it has none.
	Medium Medium
	// Arcs and ArcsErr are the node's parsed syncarcs.
	Arcs    []SyncArc
	ArcsErr error
	// chanName is the channel the node names, when chanBound.
	chanName string
	// styleErr is the first broken style reference on the node or its
	// nearest ancestor with one, and errAt the node that carries it.
	styleErr error
	errAt    *Node

	HasFile, HasDuration, chanBound bool
}

// Resolve resolves every node of the document in one walk, top down. A
// child starts from its parent's resolution, so the walk costs O(nodes),
// where a lookup through ChannelOf and the like walks the node's
// ancestors. The result is in pre-order, the order Node.Walk visits.
func Resolve(d *Document) []Resolved {
	out := make([]Resolved, 0, d.Root.Count())
	var walk func(n *Node, parent *Resolved)
	walk = func(n *Node, parent *Resolved) {
		out = append(out, d.ResolveNode(n, parent))
		r := &out[len(out)-1] // out never grows past its capacity
		for _, c := range n.Children() {
			walk(c, r)
		}
	}
	walk(d.Root, nil)
	return out
}

// ResolveNode resolves n from its parent's resolution (nil for the root).
// The rule is effectiveAttr's: what the node binds itself, through its
// styles, wins over what it inherits, and a broken style reference on the
// node or any ancestor fails every lookup on it.
func (d *Document) ResolveNode(n *Node, parent *Resolved) Resolved {
	r := Resolved{Node: n, Medium: MediumText}
	r.Arcs, r.ArcsErr = n.Arcs()
	ch, found, err := d.styles.ExpandedGet(n.Attrs, "channel")
	switch {
	case err != nil:
		r.styleErr, r.errAt = err, n
		return r
	case parent != nil && parent.styleErr != nil:
		r.styleErr, r.errAt = parent.styleErr, parent.errAt
		return r
	case found:
		if r.chanName, r.chanBound = ch.AsID(); r.chanBound {
			r.Channel = d.channels.channels[r.chanName]
		}
	case parent != nil:
		r.Channel, r.chanName, r.chanBound = parent.Channel, parent.chanName, parent.chanBound
	}
	if v, found, _ := d.styles.ExpandedGet(n.Attrs, "file"); found {
		file, err := pathText(v)
		r.File, r.HasFile = file, err == nil
	} else if parent != nil {
		r.File, r.HasFile = parent.File, parent.HasFile
	}
	v, found, _ := d.styles.ExpandedGet(n.Attrs, "medium")
	r.Medium = mediumOf(v, found)
	if n.Type.IsLeaf() {
		if v, found, _ := d.styles.ExpandedGet(n.Attrs, "duration"); found {
			r.Duration, r.HasDuration = v.AsNumber()
		}
	}
	return r
}
