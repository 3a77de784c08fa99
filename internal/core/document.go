package core

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/units"
)

// Document wraps a CMIF tree root together with the dictionaries parsed from
// it. "At the root of the tree is a general node that describes the summary
// structure of a document ... it is a place where various directory
// attributes are found and ... provides an implied timing reference point
// for all other nodes" (section 5.1).
type Document struct {
	Root *Node

	styles   *attr.StyleDict
	channels *ChannelDict
	changes  []Change
	// trimmed is the generation of changes[0]: the records TrimChanges
	// dropped.
	trimmed uint64
}

// NewDocument wraps root, decoding its style and channel dictionaries.
func NewDocument(root *Node) (*Document, error) {
	d := &Document{Root: root}
	if err := d.Refresh(); err != nil {
		return nil, err
	}
	return d, nil
}

// Refresh re-decodes the root dictionaries after the tree was edited. The
// refresh is recorded as a global change: callers use Refresh after editing
// the tree directly, which incremental consumers cannot track.
func (d *Document) Refresh() error {
	d.NoteGlobalChange()
	d.styles = attr.NewStyleDict()
	d.channels = NewChannelDict()
	if d.Root == nil {
		return fmt.Errorf("core: document has no root")
	}
	if v, ok := d.Root.Attrs.Get("styledict"); ok {
		sd, err := attr.ParseStyleDict(v)
		if err != nil {
			return err
		}
		d.styles = sd
	}
	if v, ok := d.Root.Attrs.Get("channeldict"); ok {
		cd, err := ParseChannelDict(v)
		if err != nil {
			return err
		}
		d.channels = cd
	}
	return nil
}

// Styles returns the document's style dictionary.
func (d *Document) Styles() *attr.StyleDict { return d.styles }

// Channels returns the document's channel dictionary.
func (d *Document) Channels() *ChannelDict { return d.channels }

// SetStyles installs a style dictionary on the root and re-decodes.
func (d *Document) SetStyles(sd *attr.StyleDict) {
	d.Root.Attrs.Set("styledict", sd.DictValue())
	d.styles = sd
	d.NoteGlobalChange()
}

// SetChannels installs a channel dictionary on the root and re-decodes.
func (d *Document) SetChannels(cd *ChannelDict) {
	d.Root.Attrs.Set("channeldict", cd.DictValue())
	d.channels = cd
	d.NoteGlobalChange()
}

// EffectiveAttrs computes the attributes in force on node n: the node's own
// attributes, with its styles expanded ("at runtime, each style name is
// looked up in the style directory of the root node"), and inheritable
// attributes (channel, file, tformatting) filled in from ancestors. Styles
// on ancestors are expanded before their attributes are inherited.
func (d *Document) EffectiveAttrs(n *Node) (attr.List, error) {
	out, err := d.styles.Expand(n.Attrs)
	if err != nil {
		return attr.List{}, fmt.Errorf("core: %s: %w", n.PathString(), err)
	}
	for p := n.Parent(); p != nil; p = p.Parent() {
		// Only style references and inheritable attributes can reach n.
		// Filter before expanding, so heavy non-inherited values (a
		// composite's syncarcs list, immediate data) are never cloned.
		var relevant attr.List
		for _, pair := range p.Attrs.Pairs() {
			if pair.Name == "style" || StandardAttrs.IsInherited(pair.Name) {
				relevant.Set(pair.Name, pair.Value)
			}
		}
		if len(relevant.Pairs()) == 0 {
			continue
		}
		exp, err := d.styles.Expand(relevant)
		if err != nil {
			return attr.List{}, fmt.Errorf("core: %s: %w", p.PathString(), err)
		}
		for _, pair := range exp.Pairs() {
			if StandardAttrs.IsInherited(pair.Name) {
				out.SetDefault(pair.Name, pair.Value)
			}
		}
	}
	return out, nil
}

// effectiveAttr returns the value name has in EffectiveAttrs(n), with the
// same found flag and the same error, without building the list: n's own
// binding through its styles, else the nearest ancestor's for an
// inheritable name, with every ancestor's style references checked. The
// value is shared with the tree; do not mutate it.
func (d *Document) effectiveAttr(n *Node, name string) (attr.Value, bool, error) {
	v, found, err := d.styles.ExpandedGet(n.Attrs, name)
	if err != nil {
		return attr.Value{}, false, fmt.Errorf("core: %s: %w", n.PathString(), err)
	}
	inherited := StandardAttrs.IsInherited(name)
	for p := n.Parent(); p != nil; p = p.Parent() {
		pv, pfound, err := d.styles.ExpandedGet(p.Attrs, name)
		if err != nil {
			return attr.Value{}, false, fmt.Errorf("core: %s: %w", p.PathString(), err)
		}
		if !found && inherited {
			v, found = pv, pfound
		}
	}
	return v, found, nil
}

// ChannelOf returns the channel the node's data is directed to, resolving
// the inherited channel attribute against the channel dictionary.
func (d *Document) ChannelOf(n *Node) (Channel, error) {
	v, found, err := d.effectiveAttr(n, "channel")
	if err != nil {
		return Channel{}, err
	}
	name, ok := v.AsID()
	if !found || !ok {
		return Channel{}, fmt.Errorf("core: %s has no channel attribute", n.PathString())
	}
	c, ok := d.channels.Lookup(name)
	if !ok {
		return Channel{}, fmt.Errorf("core: %s names undefined channel %q", n.PathString(), name)
	}
	return c, nil
}

// FileOf returns the (inherited) file attribute identifying the node's data
// descriptor, for external nodes.
func (d *Document) FileOf(n *Node) (string, bool) {
	v, found, err := d.effectiveAttr(n, "file")
	if err != nil || !found {
		return "", false
	}
	s, err := pathText(v) // a STRING or an ID
	return s, err == nil
}

// ExternalFiles returns the distinct (inherited) file attributes of the
// document's external leaves, in first-appearance order — the block list a
// player must resolve before the presentation can start.
func (d *Document) ExternalFiles() []string {
	var out []string
	seen := make(map[string]bool)
	d.Root.Walk(func(n *Node) bool {
		if n.Type != Ext {
			return true
		}
		if file, ok := d.FileOf(n); ok && !seen[file] {
			seen[file] = true
			out = append(out, file)
		}
		return true
	})
	return out
}

// DurationOf returns the leaf event's presentation duration in document
// time, from its (effective) duration attribute converted with the channel's
// rates. Leaves without a duration report ok=false; composites always report
// false (their extent derives from their children).
func (d *Document) DurationOf(n *Node) (dur units.Quantity, ok bool) {
	if !n.Type.IsLeaf() {
		return units.Quantity{}, false
	}
	v, found, err := d.effectiveAttr(n, "duration")
	if err != nil || !found {
		return units.Quantity{}, false
	}
	return v.AsNumber()
}

// MediumOf returns the medium of an immediate node's data from its
// effective medium attribute; the paper's default, text, stands in when the
// attribute is absent or does not resolve. External nodes take their medium
// from their data descriptor instead.
func (d *Document) MediumOf(n *Node) Medium {
	v, found, err := d.effectiveAttr(n, "medium")
	return mediumOf(v, found && err == nil)
}

// mediumOf reads a medium attribute, defaulting to text.
func mediumOf(v attr.Value, found bool) Medium {
	if id, ok := v.AsID(); found && ok {
		if m, err := ParseMedium(id); err == nil {
			return m
		}
	}
	return MediumText
}

// Stats summarizes a document's structure for table-of-contents style tools
// (the "internal table-of-contents function" of section 2).
type Stats struct {
	Nodes     int
	Seq       int
	Par       int
	Ext       int
	Imm       int
	MaxDepth  int
	Arcs      int
	Channels  int
	Styles    int
	ImmBytes  int
	NamedSet  int
	LeafCount int
}

// Stats walks the tree and computes summary statistics.
func (d *Document) Stats() Stats {
	var s Stats
	s.Channels = d.channels.Len()
	s.Styles = d.styles.Len()
	d.Root.Walk(func(n *Node) bool {
		s.Nodes++
		switch n.Type {
		case Seq:
			s.Seq++
		case Par:
			s.Par++
		case Ext:
			s.Ext++
			s.LeafCount++
		case Imm:
			s.Imm++
			s.LeafCount++
			s.ImmBytes += len(n.Data)
		}
		if depth := n.Depth(); depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		if n.Name() != "" {
			s.NamedSet++
		}
		if arcs, err := n.Arcs(); err == nil {
			s.Arcs += len(arcs)
		}
		return true
	})
	return s
}

// Clone deep-copies the document.
func (d *Document) Clone() *Document {
	c, err := NewDocument(d.Root.Clone())
	if err != nil {
		// The source document decoded successfully; a clone cannot fail.
		panic(fmt.Sprintf("core: clone failed: %v", err))
	}
	return c
}
