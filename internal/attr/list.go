package attr

import (
	"fmt"
	"slices"
	"strings"
)

// Pair is one attribute: a name and its value.
type Pair struct {
	Name  string
	Value Value
}

// List is an ordered attribute list. Section 5.2: "each name may occur at
// most once in each list for each node". Order is preserved because the
// human-readable document format keeps author ordering.
//
// The zero List is empty and ready to use.
type List struct {
	pairs []Pair
}

// NewList builds a list from pairs, returning an error on duplicate names
// (the paper's uniqueness consistency rule).
func NewList(pairs ...Pair) (List, error) {
	var l List
	for _, p := range pairs {
		if _, ok := l.Get(p.Name); ok {
			return List{}, fmt.Errorf("attr: duplicate attribute %q", p.Name)
		}
		l.pairs = append(l.pairs, p)
	}
	return l, nil
}

// MustList is NewList that panics on duplicates; for literals in tests and
// examples where the input is static.
func MustList(pairs ...Pair) List {
	l, err := NewList(pairs...)
	if err != nil {
		panic(err)
	}
	return l
}

// P is a convenience constructor for a Pair.
func P(name string, v Value) Pair { return Pair{Name: name, Value: v} }

// Len reports the number of attributes.
func (l List) Len() int { return len(l.pairs) }

// Get returns the value bound to name.
func (l List) Get(name string) (Value, bool) {
	// Index rather than range: a range copies every Pair it passes.
	for i := range l.pairs {
		if l.pairs[i].Name == name {
			return l.pairs[i].Value, true
		}
	}
	return Value{}, false
}

// Has reports whether name is present.
func (l List) Has(name string) bool {
	_, ok := l.Get(name)
	return ok
}

// Set binds name to v, replacing any existing binding and otherwise
// appending. It preserves the uniqueness invariant by construction.
func (l *List) Set(name string, v Value) {
	for i, p := range l.pairs {
		if p.Name == name {
			l.pairs[i].Value = v
			return
		}
	}
	l.pairs = append(l.pairs, Pair{Name: name, Value: v})
}

// SetDefault binds name to v only if name is not already present. It returns
// true if the binding was added. Style expansion uses this: explicit
// attributes override style-provided ones.
func (l *List) SetDefault(name string, v Value) bool {
	if l.Has(name) {
		return false
	}
	l.pairs = append(l.pairs, Pair{Name: name, Value: v})
	return true
}

// Grow makes room for n more attributes without reallocating, for a
// decoder that knows how many it is about to set.
func (l *List) Grow(n int) { l.pairs = slices.Grow(l.pairs, n) }

// Del removes name, reporting whether it was present.
func (l *List) Del(name string) bool {
	for i, p := range l.pairs {
		if p.Name == name {
			l.pairs = append(l.pairs[:i], l.pairs[i+1:]...)
			return true
		}
	}
	return false
}

// Pairs returns the attributes in document order. The slice is shared;
// callers must not mutate it.
func (l List) Pairs() []Pair { return l.pairs }

// Names returns the attribute names in document order.
func (l List) Names() []string {
	out := make([]string, len(l.pairs))
	for i, p := range l.pairs {
		out[i] = p.Name
	}
	return out
}

// Clone returns a deep copy.
func (l List) Clone() List {
	pairs := make([]Pair, len(l.pairs))
	for i, p := range l.pairs {
		pairs[i] = Pair{Name: p.Name, Value: p.Value.Clone()}
	}
	return List{pairs: pairs}
}

// Snapshot returns a copy of the bindings that later Set and Del calls on
// l do not reach. The values are shared, not cloned: no List method
// mutates a value in place.
func (l List) Snapshot() List { return List{pairs: slices.Clone(l.pairs)} }

// Equal reports deep equality including order.
func (l List) Equal(o List) bool {
	if len(l.pairs) != len(o.pairs) {
		return false
	}
	for i := range l.pairs {
		if l.pairs[i].Name != o.pairs[i].Name ||
			!l.pairs[i].Value.Equal(o.pairs[i].Value) {
			return false
		}
	}
	return true
}

// String renders the list as a sequence of "(name value)" groups.
func (l List) String() string {
	var b strings.Builder
	for i, p := range l.pairs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('(')
		b.WriteString(p.Name)
		b.WriteByte(' ')
		b.WriteString(p.Value.String())
		b.WriteByte(')')
	}
	return b.String()
}

// Convenience typed getters. Each returns the zero value and false when the
// attribute is absent or has the wrong kind.

// GetID returns the identifier text of attribute name.
func (l List) GetID(name string) (string, bool) {
	v, ok := l.Get(name)
	if !ok {
		return "", false
	}
	return v.AsID()
}

// GetString returns the string text of attribute name.
func (l List) GetString(name string) (string, bool) {
	v, ok := l.Get(name)
	if !ok {
		return "", false
	}
	return v.AsString()
}

// GetInt returns the dimensionless integer value of attribute name.
func (l List) GetInt(name string) (int64, bool) {
	v, ok := l.Get(name)
	if !ok {
		return 0, false
	}
	return v.AsInt()
}

// GetList returns the items of a LIST-valued attribute name.
func (l List) GetList(name string) ([]Item, bool) {
	v, ok := l.Get(name)
	if !ok {
		return nil, false
	}
	return v.AsList()
}
