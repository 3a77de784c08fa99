package codec

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/attr"
	"repro/internal/core"
)

// Form selects between the two tree renderings of Figure 5: the conventional
// indented form and the embedded single-line form.
type Form int

const (
	// Conventional is the indented, one-construct-per-line rendering
	// (Figure 5a: nodes and branches).
	Conventional Form = iota
	// Embedded is the compact single-line rendering (Figure 5b: the tree
	// as an embedded structure).
	Embedded
)

// WriteOptions controls serialization.
type WriteOptions struct {
	Form Form
	// Indent is the per-level indentation for the conventional form;
	// defaults to two spaces.
	Indent string
}

// Encode renders the document in the requested form.
func Encode(d *core.Document, opts WriteOptions) (string, error) {
	return EncodeNode(d.Root, opts)
}

// EncodeNode renders a node tree in the requested form.
func EncodeNode(n *core.Node, opts WriteOptions) (string, error) {
	if opts.Indent == "" {
		opts.Indent = "  "
	}
	var b strings.Builder
	w := &writer{b: &b, opts: opts}
	if err := w.writeNode(n, 0); err != nil {
		return "", err
	}
	if opts.Form == Conventional {
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Write renders the document to w.
func Write(w io.Writer, d *core.Document, opts WriteOptions) error {
	s, err := Encode(d, opts)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

type writer struct {
	b    *strings.Builder
	opts WriteOptions
}

func (w *writer) indent(depth int) {
	if w.opts.Form == Embedded {
		return
	}
	for i := 0; i < depth; i++ {
		w.b.WriteString(w.opts.Indent)
	}
}

func (w *writer) newlineOrSpace() {
	if w.opts.Form == Embedded {
		w.b.WriteByte(' ')
	} else {
		w.b.WriteByte('\n')
	}
}

// writeNode renders one node with its attributes and children.
func (w *writer) writeNode(n *core.Node, depth int) error {
	w.b.WriteByte('(')
	w.b.WriteString(n.Type.String())

	pairs := n.Attrs.Pairs()
	hasBody := len(pairs) > 0 || n.NumChildren() > 0 || len(n.Data) > 0
	if !hasBody {
		w.b.WriteByte(')')
		return nil
	}
	for _, p := range pairs {
		if err := CheckAttrName(p.Name); err != nil {
			return err
		}
		w.newlineOrSpace()
		w.indent(depth + 1)
		w.b.WriteByte('(')
		w.b.WriteString(p.Name)
		w.b.WriteByte(' ')
		if err := w.writeValue(p.Value); err != nil {
			return err
		}
		w.b.WriteByte(')')
	}
	if n.Type == core.Imm && len(n.Data) > 0 {
		w.newlineOrSpace()
		w.indent(depth + 1)
		if isPrintableText(n.Data) {
			w.b.WriteString("(data ")
			w.b.WriteString(attr.String(string(n.Data)).String())
			w.b.WriteByte(')')
		} else {
			w.b.WriteString("(datahex \"")
			const hexdigits = "0123456789abcdef"
			for _, c := range n.Data {
				w.b.WriteByte(hexdigits[c>>4])
				w.b.WriteByte(hexdigits[c&0xf])
			}
			w.b.WriteString("\")")
		}
	}
	for _, c := range n.Children() {
		w.newlineOrSpace()
		w.indent(depth + 1)
		if err := w.writeNode(c, depth+1); err != nil {
			return err
		}
	}
	if w.opts.Form == Conventional {
		w.b.WriteByte('\n')
		w.indent(depth)
	}
	w.b.WriteByte(')')
	return nil
}

// CheckAttrName reports why the text form cannot carry an attribute
// named name, or nil. The writer enforces it, and the binary codec and
// the edit engine apply it too, so that every document the system holds
// has a text form.
func CheckAttrName(name string) error {
	// A switch, not nodeTypeSet: the binary decoder runs this for every
	// attribute it reads.
	switch name {
	case "seq", "par", "ext", "imm":
		return fmt.Errorf("codec: attribute name %q collides with a node type keyword", name)
	case "data", "datahex":
		return fmt.Errorf("codec: attribute name %q is reserved for imm payloads", name)
	}
	if !identOK(name) {
		return fmt.Errorf("codec: attribute name %q is not a valid identifier", name)
	}
	return nil
}

// checkItemName is CheckAttrName's rule for the name of a named list
// item; an unnamed item has the empty name.
func checkItemName(name string) error {
	if name != "" && !identOK(name) {
		return fmt.Errorf("codec: list item name %q is not a valid identifier", name)
	}
	return nil
}

// writeValue renders an attribute value; identifiers that cannot round-trip
// as bare identifiers are re-rendered as strings.
func (w *writer) writeValue(v attr.Value) error {
	switch v.Kind() {
	case attr.KindID:
		id, _ := v.AsID()
		if id == "" {
			w.b.WriteByte('-')
			return nil
		}
		if !identOK(id) {
			w.b.WriteString(attr.String(id).String())
			return nil
		}
		w.b.WriteString(id)
		return nil
	case attr.KindString, attr.KindNumber:
		w.b.WriteString(v.String())
		return nil
	case attr.KindList:
		items, _ := v.AsList()
		w.b.WriteByte('[')
		for i, it := range items {
			if i > 0 {
				w.b.WriteByte(' ')
			}
			if it.Name != "" {
				if err := checkItemName(it.Name); err != nil {
					return err
				}
				w.b.WriteByte('(')
				w.b.WriteString(it.Name)
				w.b.WriteByte(' ')
				if err := w.writeValue(it.Value); err != nil {
					return err
				}
				w.b.WriteByte(')')
			} else if err := w.writeValue(it.Value); err != nil {
				return err
			}
		}
		w.b.WriteByte(']')
		return nil
	default:
		return fmt.Errorf("codec: cannot serialize value kind %v", v.Kind())
	}
}

// isPrintableText reports whether data is valid UTF-8 without control
// characters (other than \n and \t), and therefore safe for the quoted
// "data" attribute.
func isPrintableText(data []byte) bool {
	if !utf8.Valid(data) {
		return false
	}
	for _, r := range string(data) {
		if r == '\n' || r == '\t' {
			continue
		}
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return true
}
