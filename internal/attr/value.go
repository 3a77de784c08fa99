// Package attr implements CMIF attribute lists: ordered collections of
// name/value pairs in which each name may occur at most once (a global
// consistency rule from section 5.2 of the paper). Values follow the four
// example definitions the paper gives: ID (a character value without embedded
// spaces), NUMBER (a numeric value, here extended with the media-dependent
// units of section 5.3.2), STRING (a quoted character string) and value*
// (a nested list of further values or attribute pairs).
//
// The package also implements style dictionaries ("style" is a shorthand for
// placing a set of attributes on a node) with the paper's acyclicity rule:
// style definitions may refer to other styles as long as no style refers to
// itself, directly or indirectly.
package attr

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// Kind discriminates the value forms of section 5.2.
type Kind int

const (
	// KindID is a bare identifier (no embedded spaces).
	KindID Kind = iota
	// KindNumber is a numeric value, possibly with a media-dependent unit.
	KindNumber
	// KindString is a quoted character string.
	KindString
	// KindList is the paper's "value*" form: a nested list whose elements
	// are values or named sub-attributes.
	KindList
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindID:
		return "ID"
	case KindNumber:
		return "NUMBER"
	case KindString:
		return "STRING"
	case KindList:
		return "LIST"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a tagged union over the four attribute value forms. The zero
// Value is the empty ID, which renders as "-".
type Value struct {
	kind Kind
	s    string // an ID's or a STRING's text
	num  units.Quantity
	list []Item
}

// Item is one element of a list value: either an anonymous Value or a named
// sub-attribute (Name != ""). Named items give lists the shape needed for
// channel and style dictionaries.
type Item struct {
	Name  string
	Value Value
}

// ID constructs an identifier value. Identifiers must not contain spaces;
// offending characters are replaced with '_' to keep documents parseable.
func ID(s string) Value {
	if strings.ContainsAny(s, " \t\n\r()\"") {
		s = strings.Map(func(r rune) rune {
			switch r {
			case ' ', '\t', '\n', '\r', '(', ')', '"':
				return '_'
			}
			return r
		}, s)
	}
	return Value{kind: KindID, s: s}
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Number constructs a dimensionless numeric value.
func Number(v int64) Value {
	return Value{kind: KindNumber, num: units.Q(v, units.None)}
}

// Quantity constructs a numeric value with a unit.
func Quantity(q units.Quantity) Value { return Value{kind: KindNumber, num: q} }

// VList constructs a list value of anonymous elements.
func VList(vs ...Value) Value {
	items := make([]Item, len(vs))
	for i, v := range vs {
		items[i] = Item{Value: v}
	}
	return Value{kind: KindList, list: items}
}

// ListOf constructs a list from explicit items (named or anonymous).
func ListOf(items ...Item) Value {
	return Value{kind: KindList, list: append([]Item(nil), items...)}
}

// Named is a convenience constructor for a named list item.
func Named(name string, v Value) Item { return Item{Name: name, Value: v} }

// Kind reports the value's form.
func (v Value) Kind() Kind { return v.kind }

// AsID returns the identifier text if the value is an ID.
func (v Value) AsID() (string, bool) {
	if v.kind == KindID {
		return v.s, true
	}
	return "", false
}

// AsString returns the string text if the value is a STRING.
func (v Value) AsString() (string, bool) {
	if v.kind == KindString {
		return v.s, true
	}
	return "", false
}

// AsNumber returns the quantity if the value is a NUMBER.
func (v Value) AsNumber() (units.Quantity, bool) {
	if v.kind == KindNumber {
		return v.num, true
	}
	return units.Quantity{}, false
}

// AsInt returns the integer value of a dimensionless NUMBER.
func (v Value) AsInt() (int64, bool) {
	if v.kind == KindNumber && v.num.Unit == units.None {
		return v.num.Value, true
	}
	return 0, false
}

// AsList returns the items if the value is a LIST.
func (v Value) AsList() ([]Item, bool) {
	if v.kind == KindList {
		return v.list, true
	}
	return nil, false
}

// Text returns a best-effort textual rendering of scalar values: the ID
// text, the string text, or the formatted number. Lists return false.
func (v Value) Text() (string, bool) {
	switch v.kind {
	case KindID, KindString:
		return v.s, true
	case KindNumber:
		return v.num.String(), true
	default:
		return "", false
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindID, KindString:
		return v.s == o.s
	case KindNumber:
		return v.num == o.num
	case KindList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if v.list[i].Name != o.list[i].Name ||
				!v.list[i].Value.Equal(o.list[i].Value) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Clone returns a deep copy of the value.
func (v Value) Clone() Value {
	if v.kind != KindList {
		return v
	}
	items := make([]Item, len(v.list))
	for i, it := range v.list {
		items[i] = Item{Name: it.Name, Value: it.Value.Clone()}
	}
	return Value{kind: KindList, list: items}
}

// String renders the value in the document text syntax. Strings are quoted
// with Go-style escaping; lists render parenthesized.
func (v Value) String() string {
	var b strings.Builder
	v.write(&b)
	return b.String()
}

func (v Value) write(b *strings.Builder) {
	switch v.kind {
	case KindID:
		if v.s == "" {
			b.WriteString("-")
			return
		}
		b.WriteString(v.s)
	case KindString:
		b.WriteString(quote(v.s))
	case KindNumber:
		b.WriteString(v.num.String())
	case KindList:
		// Lists use square brackets so that anonymous lists can never be
		// confused with named "(name value)" groups in the document text.
		b.WriteByte('[')
		for i, it := range v.list {
			if i > 0 {
				b.WriteByte(' ')
			}
			if it.Name != "" {
				b.WriteByte('(')
				b.WriteString(it.Name)
				b.WriteByte(' ')
				it.Value.write(b)
				b.WriteByte(')')
			} else {
				it.Value.write(b)
			}
		}
		b.WriteByte(']')
	}
}

// quote renders s as a double-quoted string with minimal escaping.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
