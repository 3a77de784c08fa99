package core

import (
	"fmt"

	"repro/internal/attr"
)

// AttrSpec describes one standard attribute from the paper's Figure 7 table
// (plus the small set of extensions this implementation defines, marked in
// their doc strings). The registry drives validation and inheritance.
type AttrSpec struct {
	Name string
	// Inherited marks attributes that flow to descendants unless
	// explicitly overridden (Figure 7 marks Channel and File as inherited;
	// tformatting inherits so styles compose the way the paper's text
	// formatting discussion implies).
	Inherited bool
	// RootOnly marks attributes that "should currently only occur on the
	// root node" (Style Dictionary, Channel Dictionary).
	RootOnly bool
	// NodeTypes restricts which node types may carry the attribute; nil
	// means any.
	NodeTypes []NodeType
	// Kinds restricts the value kinds accepted; nil means any.
	Kinds []attr.Kind
	// Doc is the Figure-7 description, abbreviated.
	Doc string
}

// AllowsNode reports whether the attribute may appear on node type t.
func (s AttrSpec) AllowsNode(t NodeType) bool {
	if s.NodeTypes == nil {
		return true
	}
	for _, nt := range s.NodeTypes {
		if nt == t {
			return true
		}
	}
	return false
}

// AllowsKind reports whether the attribute accepts a value of kind k.
func (s AttrSpec) AllowsKind(k attr.Kind) bool {
	if s.Kinds == nil {
		return true
	}
	for _, kk := range s.Kinds {
		if kk == k {
			return true
		}
	}
	return false
}

// Registry is a set of attribute specifications indexed by name.
type Registry struct {
	specs map[string]AttrSpec
	order []string
}

// NewRegistry builds a registry from specs.
func NewRegistry(specs ...AttrSpec) *Registry {
	r := &Registry{specs: make(map[string]AttrSpec, len(specs))}
	for _, s := range specs {
		if _, dup := r.specs[s.Name]; !dup {
			r.order = append(r.order, s.Name)
		}
		r.specs[s.Name] = s
	}
	return r
}

// Lookup returns the spec for name.
func (r *Registry) Lookup(name string) (AttrSpec, bool) {
	s, ok := r.specs[name]
	return s, ok
}

// IsInherited reports whether name is a registered inheritable attribute.
func (r *Registry) IsInherited(name string) bool {
	s, ok := r.specs[name]
	return ok && s.Inherited
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Check validates one attribute binding against the registry for a node of
// type t. Unknown attributes are permitted — "a node can have arbitrary
// attributes" (section 5.2) — so Check returns nil for them.
func (r *Registry) Check(name string, v attr.Value, t NodeType, isRoot bool) error {
	s, ok := r.specs[name]
	if !ok {
		return nil
	}
	if s.RootOnly && !isRoot {
		return fmt.Errorf("core: attribute %q may only occur on the root node", name)
	}
	if !s.AllowsNode(t) {
		return fmt.Errorf("core: attribute %q not allowed on %v nodes", name, t)
	}
	if !s.AllowsKind(v.Kind()) {
		return fmt.Errorf("core: attribute %q does not accept %v values", name, v.Kind())
	}
	return nil
}

// StandardAttrs is the registry of Figure-7 attributes plus this
// implementation's documented extensions.
var StandardAttrs = NewRegistry(
	AttrSpec{
		Name: "name", Kinds: []attr.Kind{attr.KindID, attr.KindString},
		Doc: "assigns a name to the current node; names are relative to their parent",
	},
	AttrSpec{
		Name: "styledict", RootOnly: true, Kinds: []attr.Kind{attr.KindList},
		Doc: "defines one or more new styles; root only",
	},
	AttrSpec{
		Name: "style", Kinds: []attr.Kind{attr.KindID, attr.KindList},
		Doc: "one or more styles applied to the current node",
	},
	AttrSpec{
		Name: "channeldict", RootOnly: true, Kinds: []attr.Kind{attr.KindList},
		Doc: "defines one or more synchronization channels; root only",
	},
	AttrSpec{
		Name: "channel", Inherited: true, Kinds: []attr.Kind{attr.KindID},
		Doc: "directs the node's data to a channel defined in the root's channel list; inherited",
	},
	AttrSpec{
		Name: "file", Inherited: true,
		Kinds: []attr.Kind{attr.KindString, attr.KindID},
		Doc:   "identifies the data descriptor used by external nodes; inherited",
	},
	AttrSpec{
		Name: "tformatting", Inherited: true, Kinds: []attr.Kind{attr.KindList},
		Doc: "shorthand list of text formatting parameters (font, size, indent, vspace)",
	},
	AttrSpec{
		Name: "slice", NodeTypes: []NodeType{Ext}, Kinds: []attr.Kind{attr.KindList},
		Doc: "subsection of the file used by an external node specifying binary data",
	},
	AttrSpec{
		Name: "crop", NodeTypes: []NodeType{Ext, Imm}, Kinds: []attr.Kind{attr.KindList},
		Doc: "specifies a subimage of an image",
	},
	AttrSpec{
		Name: "clip", NodeTypes: []NodeType{Ext, Imm}, Kinds: []attr.Kind{attr.KindList},
		Doc: "specifies a part of a sound fragment",
	},
	AttrSpec{
		Name: "syncarcs", Kinds: []attr.Kind{attr.KindList},
		Doc: "explicit synchronization arcs controlled by this node (Figure 9)",
	},
	// Extensions beyond Figure 7; each Doc string says what it adds.
	AttrSpec{
		Name: "duration", NodeTypes: []NodeType{Ext, Imm},
		Kinds: []attr.Kind{attr.KindNumber},
		Doc:   "extension: presentation duration of a leaf event when the descriptor is absent",
	},
	AttrSpec{
		Name: "medium", Kinds: []attr.Kind{attr.KindID},
		Doc: "extension: medium of an immediate node's data (default text)",
	},
	AttrSpec{
		Name: "title", Kinds: []attr.Kind{attr.KindString},
		Doc: "extension: human-readable title used by table-of-contents viewers",
	},
)

// TFormatting is the decoded form of the tformatting shorthand attribute:
// "font, size, indent, and vspace" (Figure 7).
type TFormatting struct {
	Font   string
	Size   int64
	Indent int64
	VSpace int64
}

// ParseTFormatting decodes a tformatting attribute value. Unknown entries
// are ignored so documents can carry environment-specific parameters.
func ParseTFormatting(v attr.Value) (TFormatting, error) {
	var tf TFormatting
	items, ok := v.AsList()
	if !ok {
		return tf, fmt.Errorf("core: tformatting must be a list, got %v", v.Kind())
	}
	for _, it := range items {
		switch it.Name {
		case "font":
			if id, ok := it.Value.AsID(); ok {
				tf.Font = id
			} else if s, ok := it.Value.AsString(); ok {
				tf.Font = s
			} else {
				return tf, fmt.Errorf("core: tformatting font must be ID or STRING")
			}
		case "size":
			n, ok := it.Value.AsInt()
			if !ok {
				return tf, fmt.Errorf("core: tformatting size must be a number")
			}
			tf.Size = n
		case "indent":
			n, ok := it.Value.AsInt()
			if !ok {
				return tf, fmt.Errorf("core: tformatting indent must be a number")
			}
			tf.Indent = n
		case "vspace":
			n, ok := it.Value.AsInt()
			if !ok {
				return tf, fmt.Errorf("core: tformatting vspace must be a number")
			}
			tf.VSpace = n
		}
	}
	return tf, nil
}

// Value encodes the formatting parameters back into attribute form.
func (tf TFormatting) Value() attr.Value {
	var items []attr.Item
	if tf.Font != "" {
		items = append(items, attr.Named("font", attr.ID(tf.Font)))
	}
	if tf.Size != 0 {
		items = append(items, attr.Named("size", attr.Number(tf.Size)))
	}
	if tf.Indent != 0 {
		items = append(items, attr.Named("indent", attr.Number(tf.Indent)))
	}
	if tf.VSpace != 0 {
		items = append(items, attr.Named("vspace", attr.Number(tf.VSpace)))
	}
	return attr.ListOf(items...)
}

// Region is the decoded form of slice/clip/crop range attributes. Slice and
// clip are 1-D ranges (From, To in media units); crop is a 2-D rectangle.
type Region struct {
	// From/To bound 1-D ranges (slice of bytes, clip of sound).
	From, To attr.Value
	// X, Y, W, H bound crop rectangles.
	X, Y, W, H int64
	// Rect is true when the region is a crop rectangle.
	Rect bool
}

// ParseRange decodes a slice or clip attribute: a list (from X) (to Y).
func ParseRange(v attr.Value) (Region, error) {
	items, ok := v.AsList()
	if !ok {
		return Region{}, fmt.Errorf("core: range must be a list")
	}
	var r Region
	for _, it := range items {
		switch it.Name {
		case "from":
			r.From = it.Value
		case "to":
			r.To = it.Value
		default:
			return Region{}, fmt.Errorf("core: unknown range field %q", it.Name)
		}
	}
	return r, nil
}

// ParseCrop decodes a crop attribute: a list (x X) (y Y) (w W) (h H).
func ParseCrop(v attr.Value) (Region, error) {
	items, ok := v.AsList()
	if !ok {
		return Region{}, fmt.Errorf("core: crop must be a list")
	}
	r := Region{Rect: true}
	for _, it := range items {
		n, ok := it.Value.AsInt()
		if !ok {
			return Region{}, fmt.Errorf("core: crop field %q must be a number", it.Name)
		}
		switch it.Name {
		case "x":
			r.X = n
		case "y":
			r.Y = n
		case "w":
			r.W = n
		case "h":
			r.H = n
		default:
			return Region{}, fmt.Errorf("core: unknown crop field %q", it.Name)
		}
	}
	if r.W < 0 || r.H < 0 {
		return Region{}, fmt.Errorf("core: crop with negative extent %dx%d", r.W, r.H)
	}
	return r, nil
}
