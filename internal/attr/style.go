package attr

import (
	"fmt"
	"slices"
	"sort"
)

// StyleDict holds named styles. A style is a reusable attribute list; the
// paper defines "style" as "a shorthand for placing a set of attributes on a
// node" and requires that "style definitions may refer to other style
// definitions as long as no style refers to itself, directly or indirectly"
// (Figure 7, Style Dictionary).
//
// A style refers to another style by carrying a "style" attribute itself;
// expansion is transitive with the nearer definition winning.
type StyleDict struct {
	styles map[string]List
	order  []string
}

// NewStyleDict returns an empty dictionary.
func NewStyleDict() *StyleDict {
	return &StyleDict{styles: make(map[string]List)}
}

// Define binds name to the attribute list attrs, replacing any previous
// definition. Definition order is preserved for deterministic serialization.
func (d *StyleDict) Define(name string, attrs List) {
	if _, exists := d.styles[name]; !exists {
		d.order = append(d.order, name)
	}
	d.styles[name] = attrs
}

// Lookup returns the raw (unexpanded) definition of name.
func (d *StyleDict) Lookup(name string) (List, bool) {
	l, ok := d.styles[name]
	return l, ok
}

// Names returns defined style names in definition order.
func (d *StyleDict) Names() []string {
	return append([]string(nil), d.order...)
}

// Len reports the number of defined styles.
func (d *StyleDict) Len() int { return len(d.styles) }

// CycleError reports a style that refers to itself directly or indirectly.
type CycleError struct {
	// Chain is the reference path that closes the cycle, e.g.
	// ["caption", "base", "caption"].
	Chain []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("attr: style cycle: %v", e.Chain)
}

// UndefinedStyleError reports a reference to a style with no definition.
type UndefinedStyleError struct {
	Name string
	// ReferencedBy is the style (or "" for a node) containing the reference.
	ReferencedBy string
}

func (e *UndefinedStyleError) Error() string {
	if e.ReferencedBy == "" {
		return fmt.Sprintf("attr: undefined style %q", e.Name)
	}
	return fmt.Sprintf("attr: undefined style %q referenced by style %q",
		e.Name, e.ReferencedBy)
}

// Validate checks the acyclicity rule and that every style reference inside
// the dictionary resolves. It returns all problems found, deterministically
// ordered.
func (d *StyleDict) Validate() []error {
	var errs []error
	names := make([]string, 0, len(d.styles))
	for n := range d.styles {
		names = append(names, n)
	}
	sort.Strings(names)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(d.styles))
	var stack []string
	var visit func(name string) bool // returns true if a cycle was reported
	visit = func(name string) bool {
		color[name] = grey
		stack = append(stack, name)
		defer func() { stack = stack[:len(stack)-1] }()
		for _, ref := range d.refsOf(name) {
			def, ok := d.styles[ref]
			_ = def
			if !ok {
				errs = append(errs, &UndefinedStyleError{Name: ref, ReferencedBy: name})
				continue
			}
			switch color[ref] {
			case white:
				if visit(ref) {
					return true
				}
			case grey:
				// Close the chain at the repeated style.
				chain := append(append([]string(nil), stack...), ref)
				errs = append(errs, &CycleError{Chain: chain})
				return true
			}
		}
		color[name] = black
		return false
	}
	for _, n := range names {
		if color[n] == white {
			visit(n)
		}
	}
	return errs
}

// refsOf extracts the style names referenced by the definition of name.
func (d *StyleDict) refsOf(name string) []string {
	def, ok := d.styles[name]
	if !ok {
		return nil
	}
	return StyleRefs(def)
}

// StyleRefs extracts the style names referenced by an attribute list's
// "style" attribute. The attribute may be a single ID or a list of IDs.
func StyleRefs(l List) []string {
	v, ok := l.Get("style")
	if !ok {
		return nil
	}
	var out []string
	for i := 0; ; {
		id, ok := nextStyleRef(v, &i)
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// nextStyleRef yields the references of a "style" value one at a time: a
// single ID, or the ID items of a list. *i is the cursor.
func nextStyleRef(v Value, i *int) (string, bool) {
	if id, ok := v.AsID(); ok {
		*i++
		return id, *i == 1
	}
	items, _ := v.AsList()
	for *i < len(items) {
		*i++
		if id, ok := items[*i-1].Value.AsID(); ok {
			return id, true
		}
	}
	return "", false
}

// Expand applies the styles referenced by attrs, returning a new list in
// which explicit attributes win over style attributes, earlier-listed styles
// win over later ones, and a style's own attributes win over those of the
// styles it references ("the nearer definition wins"). The returned list has
// no "style" attribute.
//
// Expand returns an error on undefined styles or cycles.
func (d *StyleDict) Expand(attrs List) (List, error) {
	out := attrs.Clone()
	out.Del("style")
	err := d.walk(attrs, func(def List) {
		for _, p := range def.Pairs() {
			if p.Name != "style" {
				out.SetDefault(p.Name, p.Value.Clone())
			}
		}
	})
	if err != nil {
		return List{}, err
	}
	return out, nil
}

// ExpandedGet returns the value name has in Expand(attrs), with the same
// found flag and the same error, without building the expanded list. The
// walk goes on after the value is found, so an undefined or cyclic style
// still fails the lookup. The value is shared with attrs or the
// dictionary; callers must not mutate it.
func (d *StyleDict) ExpandedGet(attrs List, name string) (Value, bool, error) {
	v, found := attrs.Get(name)
	err := d.walk(attrs, func(def List) {
		if !found {
			v, found = def.Get(name)
		}
	})
	if err != nil || name == "style" {
		return Value{}, false, err
	}
	return v, found, nil
}

// walk visits the definitions of the styles attrs references, depth first
// and in reference order, each style once and before the styles it
// references — the order in which Expand's earlier definitions win — and
// returns the first undefined or cyclic reference as an error. The stacks
// and the seen set start in fixed arrays, so a walk over up to eight styles
// allocates nothing.
func (d *StyleDict) walk(attrs List, visit func(def List)) error {
	sv, ok := attrs.Get("style")
	if !ok {
		return nil
	}
	// frames[0] iterates attrs' own references, frames[i] those of chain[i-1].
	type frame struct {
		refs Value
		next int
	}
	var frameBuf [8]frame
	var chainBuf, seenBuf [8]string
	frames := append(frameBuf[:0], frame{refs: sv})
	chain, seen := chainBuf[:0], seenBuf[:0]
	for len(frames) > 0 {
		top := &frames[len(frames)-1]
		ref, ok := nextStyleRef(top.refs, &top.next)
		if !ok {
			frames = frames[:len(frames)-1]
			if len(chain) > 0 {
				chain = chain[:len(chain)-1]
			}
			continue
		}
		if slices.Contains(chain, ref) {
			return &CycleError{Chain: append(slices.Clone(chain), ref)}
		}
		if slices.Contains(seen, ref) {
			continue
		}
		seen = append(seen, ref)
		def, ok := d.styles[ref]
		if !ok {
			from := ""
			if len(chain) > 0 {
				from = chain[len(chain)-1]
			}
			return &UndefinedStyleError{Name: ref, ReferencedBy: from}
		}
		visit(def)
		if sub, ok := def.Get("style"); ok {
			chain = append(chain, ref)
			frames = append(frames, frame{refs: sub})
		}
	}
	return nil
}

// ParseStyleDict interprets a "styledict" attribute value: a list of named
// items, each naming a style whose value is itself a list of attribute
// pairs. Example document syntax:
//
//	(styledict (caption ((channel captions) (tformatting ((font helvetica) (size 12))))))
func ParseStyleDict(v Value) (*StyleDict, error) {
	d := NewStyleDict()
	items, ok := v.AsList()
	if !ok {
		return nil, fmt.Errorf("attr: styledict must be a list, got %v", v.Kind())
	}
	for _, it := range items {
		if it.Name == "" {
			return nil, fmt.Errorf("attr: styledict entries must be named")
		}
		body, ok := it.Value.AsList()
		if !ok {
			return nil, fmt.Errorf("attr: style %q body must be a list", it.Name)
		}
		var l List
		for _, sub := range body {
			if sub.Name == "" {
				return nil, fmt.Errorf("attr: style %q contains unnamed attribute", it.Name)
			}
			if l.Has(sub.Name) {
				return nil, fmt.Errorf("attr: style %q repeats attribute %q", it.Name, sub.Name)
			}
			l.Set(sub.Name, sub.Value)
		}
		if _, dup := d.Lookup(it.Name); dup {
			return nil, fmt.Errorf("attr: styledict repeats style %q", it.Name)
		}
		d.Define(it.Name, l)
	}
	return d, nil
}

// DictValue serializes the dictionary back to a "styledict" attribute value.
func (d *StyleDict) DictValue() Value {
	items := make([]Item, 0, len(d.order))
	for _, name := range d.order {
		def := d.styles[name]
		body := make([]Item, 0, def.Len())
		for _, p := range def.Pairs() {
			body = append(body, Named(p.Name, p.Value))
		}
		items = append(items, Named(name, ListOf(body...)))
	}
	return ListOf(items...)
}
