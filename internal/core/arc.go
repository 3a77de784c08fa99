package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/attr"
	"repro/internal/units"
)

// EndPoint selects the beginning or the end of an event block. Section
// 5.3.2: the type field indicates "whether this synchronization arc concerns
// the beginning or the end of the event block being synchronized", and
// reference times are "specified relative to the start or end of a
// controlling event".
type EndPoint int

const (
	// Begin refers to the start of an event.
	Begin EndPoint = iota
	// End refers to the completion of an event.
	End
)

// String returns "begin" or "end".
func (e EndPoint) String() string {
	if e == End {
		return "end"
	}
	return "begin"
}

// ParseEndPoint maps "begin"/"end" to an EndPoint.
func ParseEndPoint(s string) (EndPoint, error) {
	switch s {
	case "begin":
		return Begin, nil
	case "end":
		return End, nil
	default:
		return Begin, fmt.Errorf("core: unknown endpoint %q", s)
	}
}

// Strictness is the May/Must component of an arc's type field. "May
// synchronization is an indication ... that the requested type of
// synchronization is desirable but not essential. ... Must synchronization
// is a stricter form": the environment should do all it can to honour it,
// even at the expense of overall system performance.
type Strictness int

const (
	// Must synchronization has to be honoured.
	Must Strictness = iota
	// May synchronization is desirable but droppable.
	May
)

// String returns "must" or "may".
func (s Strictness) String() string {
	if s == May {
		return "may"
	}
	return "must"
}

// ParseStrictness maps "must"/"may" to a Strictness.
func ParseStrictness(s string) (Strictness, error) {
	switch s {
	case "must":
		return Must, nil
	case "may":
		return May, nil
	default:
		return Must, fmt.Errorf("core: unknown strictness %q", s)
	}
}

// SyncArc is the explicit synchronization arc of Figure 9:
//
//	type  source  offset  destination  min_delay  max_delay
//
// The arc is directed "from the controlling event to the controlled event".
// Source and Dest are relative path names resolved against the node carrying
// the arc. The timing semantics are the synchronization equation of section
// 5.3.1:
//
//	tref + δ ≤ tactual ≤ tref + ε
//
// where tref is the time of SrcEnd of the source event plus Offset, δ is
// MinDelay (≤ 0; negative allows starting the target early) and ε is
// MaxDelay (≥ 0, possibly infinite).
type SyncArc struct {
	// DestEnd says whether the arc constrains the beginning or the end of
	// the controlled event.
	DestEnd EndPoint
	// Strict is the Must/May component.
	Strict Strictness
	// Source is the relative path of the controlling event ("" = self).
	Source string
	// SrcEnd selects the reference point on the controlling event.
	SrcEnd EndPoint
	// Offset is an integral positive offset from SrcEnd of the controlling
	// node, in media-dependent units.
	Offset units.Quantity
	// Dest is the relative path of the controlled event ("" = self).
	Dest string
	// MinDelay is δ, the minimum acceptable delay (zero or negative).
	MinDelay units.Quantity
	// MaxDelay is ε, the maximum tolerable delay (zero, positive or
	// infinite — see units.Infinite).
	MaxDelay units.Quantity
	// Cond is an extension beyond the paper (its section 3.2 sketches
	// "conditional synchronization arcs" as the route to hyper documents):
	// a predicate over an environment, e.g. "lang=en". An arc with a false
	// condition is ignored. Empty means unconditional. See internal/hyper.
	Cond string
}

// String renders the arc in the tabular order of Figure 9.
func (a SyncArc) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s %s) %s.%s +%s -> %s.%s [%s, ",
		a.DestEnd, a.Strict, pathOrSelf(a.Source), a.SrcEnd, a.Offset,
		pathOrSelf(a.Dest), a.DestEnd, a.MinDelay)
	if units.IsInfinite(a.MaxDelay) {
		b.WriteString("inf]")
	} else {
		fmt.Fprintf(&b, "%s]", a.MaxDelay)
	}
	return b.String()
}

func pathOrSelf(p string) string {
	if p == "" {
		return "."
	}
	return p
}

// Validate checks the arc's field-level rules from section 5.3.1/5.3.2:
// offset non-negative, δ ≤ 0, ε ≥ 0.
func (a SyncArc) Validate() error {
	if a.Offset.Value < 0 {
		return fmt.Errorf("core: arc offset must be a positive integral offset, got %v", a.Offset)
	}
	if a.MinDelay.Value > 0 {
		return fmt.Errorf("core: positive min_delay %v has no meaning", a.MinDelay)
	}
	if a.MaxDelay.Value < 0 {
		return fmt.Errorf("core: negative max_delay %v has no meaning", a.MaxDelay)
	}
	return nil
}

// Value encodes the arc as an attribute value, the form carried inside a
// node's "syncarcs" list:
//
//	((type (begin must)) (src "../audio") (srcend end) (offset 40ms)
//	 (dest "caption/intro") (min -10ms) (max 100ms))
//
// Zero-valued fields are omitted except type, src and dest.
func (a SyncArc) Value() attr.Value {
	items := []attr.Item{
		attr.Named("type", attr.VList(attr.ID(a.DestEnd.String()), attr.ID(a.Strict.String()))),
		attr.Named("src", attr.String(a.Source)),
	}
	if a.SrcEnd != Begin {
		items = append(items, attr.Named("srcend", attr.ID(a.SrcEnd.String())))
	}
	if !a.Offset.IsZero() {
		items = append(items, attr.Named("offset", attr.Quantity(a.Offset)))
	}
	items = append(items, attr.Named("dest", attr.String(a.Dest)))
	if !a.MinDelay.IsZero() {
		items = append(items, attr.Named("min", attr.Quantity(a.MinDelay)))
	}
	if units.IsInfinite(a.MaxDelay) {
		items = append(items, attr.Named("max", attr.ID("inf")))
	} else if !a.MaxDelay.IsZero() {
		items = append(items, attr.Named("max", attr.Quantity(a.MaxDelay)))
	}
	if a.Cond != "" {
		items = append(items, attr.Named("cond", attr.String(a.Cond)))
	}
	return attr.ListOf(items...)
}

// arcFields are the fields an arc's list may carry, each at most once.
var arcFields = [...]string{"type", "src", "dest", "srcend", "offset", "min", "max", "cond"}

// ParseArc decodes one arc from its attribute value form.
func ParseArc(v attr.Value) (SyncArc, error) {
	items, ok := v.AsList()
	if !ok {
		return SyncArc{}, fmt.Errorf("core: sync arc must be a list, got %v", v.Kind())
	}
	var a SyncArc
	var seen uint
	for i := range items {
		it := &items[i]
		if it.Name == "" {
			return SyncArc{}, fmt.Errorf("core: sync arc contains unnamed field")
		}
		if f := slices.Index(arcFields[:], it.Name); f >= 0 {
			if seen&(1<<f) != 0 {
				return SyncArc{}, fmt.Errorf("core: sync arc repeats field %q", it.Name)
			}
			seen |= 1 << f
		}
		switch it.Name {
		case "type":
			tItems, ok := it.Value.AsList()
			if !ok || len(tItems) != 2 {
				return SyncArc{}, fmt.Errorf("core: arc type must be (endpoint strictness)")
			}
			epID, _ := tItems[0].Value.AsID()
			stID, _ := tItems[1].Value.AsID()
			ep, err := ParseEndPoint(epID)
			if err != nil {
				return SyncArc{}, err
			}
			st, err := ParseStrictness(stID)
			if err != nil {
				return SyncArc{}, err
			}
			a.DestEnd, a.Strict = ep, st
		case "src":
			s, err := pathText(it.Value)
			if err != nil {
				return SyncArc{}, fmt.Errorf("core: arc src: %w", err)
			}
			a.Source = s
		case "dest":
			s, err := pathText(it.Value)
			if err != nil {
				return SyncArc{}, fmt.Errorf("core: arc dest: %w", err)
			}
			a.Dest = s
		case "srcend":
			id, _ := it.Value.AsID()
			ep, err := ParseEndPoint(id)
			if err != nil {
				return SyncArc{}, err
			}
			a.SrcEnd = ep
		case "offset":
			q, ok := it.Value.AsNumber()
			if !ok {
				return SyncArc{}, fmt.Errorf("core: arc offset must be a number")
			}
			a.Offset = q
		case "min":
			q, ok := it.Value.AsNumber()
			if !ok {
				return SyncArc{}, fmt.Errorf("core: arc min must be a number")
			}
			a.MinDelay = q
		case "max":
			if id, ok := it.Value.AsID(); ok && id == "inf" {
				a.MaxDelay = units.InfiniteQuantity()
				continue
			}
			q, ok := it.Value.AsNumber()
			if !ok {
				return SyncArc{}, fmt.Errorf("core: arc max must be a number or inf")
			}
			a.MaxDelay = q
		case "cond":
			s, ok := it.Value.AsString()
			if !ok {
				return SyncArc{}, fmt.Errorf("core: arc cond must be a string")
			}
			a.Cond = s
		default:
			return SyncArc{}, fmt.Errorf("core: unknown arc field %q", it.Name)
		}
	}
	if seen&1 == 0 { // arcFields[0] is "type"
		return SyncArc{}, fmt.Errorf("core: sync arc missing type field")
	}
	return a, nil
}

// pathText accepts a STRING or ID value as a path.
func pathText(v attr.Value) (string, error) {
	if s, ok := v.AsString(); ok {
		return s, nil
	}
	if id, ok := v.AsID(); ok {
		return id, nil
	}
	return "", fmt.Errorf("path must be STRING or ID, got %v", v.Kind())
}

// Arcs decodes the node's explicit synchronization arcs from its "syncarcs"
// attribute. A missing attribute yields no arcs: "If detailed
// synchronization is not required, then the synchronization arc can be
// omitted from the description."
func (n *Node) Arcs() ([]SyncArc, error) {
	v, ok := n.Attrs.Get("syncarcs")
	if !ok {
		return nil, nil
	}
	items, ok := v.AsList()
	if !ok {
		return nil, fmt.Errorf("core: syncarcs on %s must be a list", n.PathString())
	}
	arcs := make([]SyncArc, 0, len(items))
	for i, it := range items {
		a, err := ParseArc(it.Value)
		if err != nil {
			return nil, fmt.Errorf("core: syncarcs[%d] on %s: %w", i, n.PathString(), err)
		}
		arcs = append(arcs, a)
	}
	return arcs, nil
}

// AddArc appends an arc to the node's syncarcs attribute.
func (n *Node) AddArc(a SyncArc) *Node {
	var items []attr.Item
	if v, ok := n.Attrs.Get("syncarcs"); ok {
		items, _ = v.AsList()
		items = append([]attr.Item(nil), items...)
	}
	items = append(items, attr.Item{Value: a.Value()})
	n.Attrs.Set("syncarcs", attr.ListOf(items...))
	return n
}

// ResolveArc resolves the arc's source and destination paths against the
// carrying node, returning the endpoints.
func (n *Node) ResolveArc(a SyncArc) (src, dst *Node, err error) {
	src, err = n.Resolve(a.Source)
	if err != nil {
		return nil, nil, err
	}
	dst, err = n.Resolve(a.Dest)
	if err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}
