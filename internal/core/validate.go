package core

import (
	"fmt"
	"sort"
)

// Severity ranks validation findings.
type Severity int

const (
	// Warning marks documents that are legal but suspicious (empty
	// composites, unreferenced channels).
	Warning Severity = iota
	// Error marks violations of the paper's consistency rules; such a
	// document should be rejected by pipeline tools.
	Error
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Issue is one validation finding, tied to the node that caused it.
type Issue struct {
	Severity Severity
	// Path locates the offending node.
	Path string
	// Code is a stable machine-readable identifier (e.g. "dup-sibling-name").
	Code string
	// Msg is the human-readable explanation.
	Msg string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", i.Severity, i.Path, i.Code, i.Msg)
}

// Validate runs every structural consistency check the paper states or
// implies over the document, returning findings sorted by path then code.
// A document with no Error-severity findings is well-formed; pipeline tools
// may still reject it for environment reasons (that is the constraint
// filter's job, section 5.3.3 case 2).
func (d *Document) Validate() []Issue {
	var issues []Issue
	add := func(sev Severity, n *Node, code, format string, args ...interface{}) {
		issues = append(issues, Issue{
			Severity: sev,
			Path:     n.PathString(),
			Code:     code,
			Msg:      fmt.Sprintf(format, args...),
		})
	}

	// Style dictionary acyclicity and reference closure.
	for _, err := range d.styles.Validate() {
		issues = append(issues, Issue{
			Severity: Error, Path: "/", Code: "styledict", Msg: err.Error(),
		})
	}

	referencedChannels := map[string]bool{}

	res := Resolve(d)
	for i := range res {
		r := &res[i]
		n := r.Node

		// Registry checks: root-only attributes, node-type restrictions,
		// value kinds.
		for _, p := range n.Attrs.Pairs() {
			if err := StandardAttrs.Check(p.Name, p.Value, n.Type, n.IsRoot()); err != nil {
				add(Error, n, "attr-spec", "%v", err)
			}
		}

		// Sibling name uniqueness: "no two (direct) children of the same
		// parent may have the same name" (Figure 7, Name).
		seen := map[string]*Node{}
		for _, c := range n.Children() {
			name := c.Name()
			if name == "" {
				continue
			}
			if prev, dup := seen[name]; dup {
				add(Error, c, "dup-sibling-name",
					"name %q already used by sibling %s", name, prev.PathString())
				continue
			}
			seen[name] = c
		}

		// Leaf/composite shape.
		if n.Type.IsLeaf() && n.NumChildren() > 0 {
			add(Error, n, "leaf-with-children",
				"%v node has %d children; data nodes are atomic", n.Type, n.NumChildren())
		}
		if !n.Type.IsLeaf() && n.NumChildren() == 0 {
			add(Warning, n, "empty-composite", "%v node has no children", n.Type)
		}

		// Style references resolve (node-level; dictionary-level cycles
		// already reported above; an ancestor's broken reference is
		// reported on the ancestor), and channel references resolve
		// against the root's channel list.
		switch {
		case r.errAt == n:
			add(Error, n, "style-ref", "%v", r.styleErr)
		case r.styleErr != nil:
		case r.chanBound:
			referencedChannels[r.chanName] = true
			if r.Channel == nil {
				add(Error, n, "undefined-channel",
					"channel %q not in the root node's channel list", r.chanName)
			}
		case n.Type.IsLeaf():
			add(Warning, n, "no-channel",
				"leaf has no channel attribute (inherited or direct)")
		}

		// External nodes "should have (or inherit) a file attribute
		// specifying the data descriptor containing the data".
		if n.Type == Ext && !r.HasFile {
			add(Error, n, "ext-no-file",
				"external node has no file attribute (direct or inherited)")
		}

		// Immediate nodes should carry data.
		if n.Type == Imm && len(n.Data) == 0 {
			add(Warning, n, "imm-empty", "immediate node carries no data")
		}

		// Range attributes decode.
		if v, ok := n.Attrs.Get("slice"); ok {
			if _, err := ParseRange(v); err != nil {
				add(Error, n, "bad-slice", "%v", err)
			}
		}
		if v, ok := n.Attrs.Get("clip"); ok {
			if _, err := ParseRange(v); err != nil {
				add(Error, n, "bad-clip", "%v", err)
			}
		}
		if v, ok := n.Attrs.Get("crop"); ok {
			if _, err := ParseCrop(v); err != nil {
				add(Error, n, "bad-crop", "%v", err)
			}
		}
		if v, ok := n.Attrs.Get("tformatting"); ok {
			if _, err := ParseTFormatting(v); err != nil {
				add(Error, n, "bad-tformatting", "%v", err)
			}
		}

		// Duration attributes must be non-negative.
		if v, ok := n.Attrs.Get("duration"); ok {
			if q, okNum := v.AsNumber(); okNum && q.Value < 0 {
				add(Error, n, "negative-duration", "duration %v is negative", q)
			}
		}

		// Synchronization arcs: field rules and path resolution.
		if r.ArcsErr != nil {
			add(Error, n, "bad-arc", "%v", r.ArcsErr)
		}
		for i, a := range r.Arcs {
			if err := a.Validate(); err != nil {
				add(Error, n, "arc-fields", "arc %d: %v", i, err)
			}
			if _, _, err := n.ResolveArc(a); err != nil {
				add(Error, n, "arc-path", "arc %d: %v", i, err)
			}
		}
	}

	// Unreferenced channels are legal but worth flagging for authors.
	for _, name := range d.channels.Names() {
		if !referencedChannels[name] {
			issues = append(issues, Issue{
				Severity: Warning, Path: "/", Code: "unused-channel",
				Msg: fmt.Sprintf("channel %q defined but never referenced", name),
			})
		}
	}

	sort.Slice(issues, func(i, j int) bool {
		if issues[i].Path != issues[j].Path {
			return issues[i].Path < issues[j].Path
		}
		if issues[i].Code != issues[j].Code {
			return issues[i].Code < issues[j].Code
		}
		return issues[i].Msg < issues[j].Msg
	})
	return issues
}

// Errors filters issues to Error severity.
func Errors(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == Error {
			out = append(out, i)
		}
	}
	return out
}

// Warnings filters issues to Warning severity.
func Warnings(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == Warning {
			out = append(out, i)
		}
	}
	return out
}
