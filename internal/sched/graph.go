// Package sched implements the timing semantics of CMIF documents: the
// default synchronization arcs derived from the tree structure (section
// 5.3.1), the explicit synchronization arcs of Figure 9, the synchronization
// equation tref + δ ≤ tactual ≤ tref + ε, and the detection of the paper's
// conflict case 1 ("an unreasonable synchronization constraint may have been
// defined, directly or indirectly, by a user").
//
// The document's events (begin/end of every node) and their constraints form
// a system of difference constraints t_v − t_u ≤ w, checked by a queue-based
// Bellman–Ford and solved by Dijkstra over its labels; a negative cycle is
// exactly an unsatisfiable set of synchronization relationships, reported with
// the provenance of every constraint on the cycle. "May" arcs that appear on
// a conflict cycle can be relaxed (dropped) — must arcs can not, mirroring
// the paper's May/Must semantics.
//
// Constraints are stored in dense per-owner blocks: every node owns the
// structural and duration constraints its visit emits plus the constraints
// of the explicit arcs it carries. Block storage is what makes the graph
// patchable — the incremental Solver replaces the blocks of edited nodes
// and leaves everything else untouched — while Constraints() still exposes
// the classic flat, document-ordered view.
package sched

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

// EventID identifies one begin/end event. Events are numbered densely:
// node k's begin is 2k, its end 2k+1. Event 0 is always the root's begin
// and event 1 the root's end.
type EventID int32

// Event is the schedulable unit: one endpoint of one node. A zero Event
// (nil Node) is a tombstone left behind by an incremental deletion.
type Event struct {
	Node *core.Node
	End  core.EndPoint
}

// String renders e.g. "/story-3/intro.begin".
func (e Event) String() string {
	if e.Node == nil {
		return "(deleted)"
	}
	return e.Node.PathString() + "." + e.End.String()
}

// ConstraintKind records where a constraint came from, for conflict
// reporting and for the relaxation pass.
type ConstraintKind uint8

const (
	// KindStructural marks a default arc derived from the tree (seq
	// ordering, par containment).
	KindStructural ConstraintKind = iota
	// KindDuration marks a leaf's presentation-duration constraint.
	KindDuration
	// KindArc marks an explicit synchronization arc.
	KindArc
	// KindRuntime marks a constraint injected by a presentation
	// environment (device latency, user interaction), not by the document.
	KindRuntime
)

func (k ConstraintKind) String() string {
	switch k {
	case KindStructural:
		return "structural"
	case KindDuration:
		return "duration"
	case KindArc:
		return "arc"
	case KindRuntime:
		return "runtime"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ArcRef points at one explicit arc in the document: the node carrying it
// and its position in that node's syncarcs list.
type ArcRef struct {
	Node  *core.Node
	Index int
	Arc   core.SyncArc
}

func (r ArcRef) String() string {
	return fmt.Sprintf("%s syncarcs[%d] %s", r.Node.PathString(), r.Index, r.Arc)
}

// Constraint is one difference constraint t[V] − t[U] ≤ W. It keeps what
// describes it — its kind, events, weight and arc, or the rule and node
// that produced it — and Note words that only when someone reads it.
type Constraint struct {
	U, V EventID
	W    time.Duration
	// Arc is set for KindArc constraints. It points into the graph's arc
	// list, shared; do not mutate.
	Arc  *ArcRef
	Kind ConstraintKind
	// A structural or duration constraint's note is words, then the
	// duration for KindDuration, then node's path; note words a runtime
	// constraint.
	words string
	node  *core.Node
	note  func() string
}

// Note is a human-readable description of the constraint's origin,
// formatted on each call: conflict reports, drop reports and tests read
// it, and a solve that succeeds never does.
func (c *Constraint) Note() string {
	switch c.Kind {
	case KindArc:
		return c.Arc.String()
	case KindRuntime:
		if c.note == nil {
			return ""
		}
		return c.note()
	case KindDuration: // W is the duration, negated for a lower bound
		return fmt.Sprintf("%s%v of %s", c.words, max(c.W, -c.W), c.node.PathString())
	}
	return c.words + c.node.PathString()
}

// Graph is the constraint system for one document, with the document's
// resolution (core.Resolve) it was built from: res[k] is node k's, and the
// duration source, the arcs' unit rates, Schedule.ChannelTimeline and the
// layers that read Resolved all take their answers from it. Solver
// re-resolves the subtrees an edit touches.
type Graph struct {
	doc       *core.Document
	events    []Event
	nodeIndex map[*core.Node]int32
	res       []core.Resolved
	// pool holds every constraint the graph has emitted, and a
	// constraint's index in it is the reference its edges carry.
	// blocks[k] spans node k's two blocks in it: the structural and
	// duration constraints it owns, then the constraints of the explicit
	// arcs it carries, which arcRefs[k] lists. A block is replaced by
	// appending its successor to the pool. Only the graph's Solver writes
	// any of it.
	pool    []Constraint
	blocks  [][2]span
	arcRefs [][]ArcRef
	// ordered reports that the pool is the constraint list, as Build emits
	// it. Otherwise the list reads the blocks of the nodes order names, in
	// document order: made when first asked for and dropped when the
	// tree's shape changes. orderMu guards it: plays of one plan solve its
	// graph at once.
	ordered bool
	orderMu sync.Mutex
	order   []int32
	// consCount tracks the live system size (tombstones excluded).
	consCount int

	opts Options
	// nameIdx memoizes child-name lookups per composite during arc
	// resolution (documents routinely carry thousands of arcs naming
	// siblings in wide composites). Cleared whenever the tree is patched.
	nameIdx map[*core.Node]map[string]*core.Node
}

// span is a block's range [at, end) in its graph's pool.
type span struct{ at, end int32 }

// Options configures graph construction.
type Options struct {
	// DurationOf overrides the duration source for leaves. When nil, the
	// document's duration attribute (converted with the leaf's channel
	// rates) is used.
	DurationOf func(n *core.Node) (time.Duration, bool)
	// DefaultLeafDuration is used for leaves with no known duration.
	// Zero means such leaves are flexible (any non-negative length).
	DefaultLeafDuration time.Duration
	// RigidLeaves adds upper bounds end ≤ begin + D so leaf events cannot
	// be stretched (no freeze-frame). The paper's section 5.3.4 example
	// relies on stretching ("this may require a freeze-frame video
	// operation"), so the default is stretchable.
	RigidLeaves bool
	// SeqGaps permits dead time between consecutive children of a
	// sequential node. The default (false) pins each successor's begin to
	// its predecessor's end, so a delayed successor stretches the
	// predecessor — the freeze-frame semantics of section 5.3.4. With
	// SeqGaps, a delayed successor instead leaves the channel idle.
	SeqGaps bool
}

// Begin returns the begin-event id of node n.
func (g *Graph) Begin(n *core.Node) EventID { return EventID(g.nodeIndex[n] * 2) }

// End returns the end-event id of node n.
func (g *Graph) End(n *core.Node) EventID { return EventID(g.nodeIndex[n]*2 + 1) }

// Event returns the event for an id.
func (g *Graph) Event(id EventID) Event { return g.events[id] }

// NumEvents reports the size of the event table (2 per node, tombstones
// included).
func (g *Graph) NumEvents() int { return len(g.events) }

// Constraints returns the constraint list in document order, as a copy.
func (g *Graph) Constraints() []Constraint {
	out := make([]Constraint, 0, g.consCount)
	for _, c := range g.list().all {
		out = append(out, *c)
	}
	return out
}

// list is the constraint list the solves run over: the pool, read through
// the node order unless it is in order itself. Tombstoned nodes are not in
// the tree and therefore drop out of the order, and so do nodes missing
// from the index — added to the tree behind the graph's back (untracked
// edits) — so a stale graph stays consistent with its build.
func (g *Graph) list() conList {
	if g.ordered {
		return conList{head: g.pool}
	}
	g.orderMu.Lock()
	defer g.orderMu.Unlock()
	if g.order == nil {
		g.order = make([]int32, 0, len(g.nodeIndex))
		g.doc.Root.Walk(func(n *core.Node) bool {
			if k, ok := g.nodeIndex[n]; ok {
				g.order = append(g.order, k)
			}
			return true
		})
	}
	return conList{head: g.pool, order: g.order, blocks: g.blocks}
}

// inForce returns a flag per constraint reference of list() with bounds
// more listed after it, set for each constraint in force: every one but
// those of the arcs in drops.
func (g *Graph) inForce(bounds int, drops ...[]ArcRef) []bool {
	on := make([]bool, len(g.pool)+bounds)
	for i := range on {
		on[i] = true
	}
	for _, drop := range drops {
		for _, r := range drop {
			if k, ok := g.nodeIndex[r.Node]; ok {
				for ci := g.blocks[k][1].at; ci < g.blocks[k][1].end; ci++ {
					if g.pool[ci].Arc.Index == r.Index {
						on[ci] = false
					}
				}
			}
		}
	}
	return on
}

// Arcs returns every explicit arc found in the document, in document order.
func (g *Graph) Arcs() []ArcRef {
	var out []ArcRef
	g.doc.Root.Walk(func(n *core.Node) bool {
		if k, ok := g.nodeIndex[n]; ok {
			out = append(out, g.arcRefs[k]...)
		}
		return true
	})
	return out
}

// Doc returns the document the graph was built from.
func (g *Graph) Doc() *core.Document { return g.doc }

// Resolved returns node n's resolution as the graph holds it, nil for a
// nil node. A node the graph does not know — one added behind its back —
// is resolved on the spot from its ancestors. Shared; do not mutate.
func (g *Graph) Resolved(n *core.Node) *core.Resolved {
	if n == nil {
		return nil
	}
	if k, ok := g.nodeIndex[n]; ok {
		return &g.res[k]
	}
	r := g.doc.ResolveNode(n, g.Resolved(n.Parent()))
	return &r
}

// leafDuration is the graph's duration source: Options.DurationOf, else
// the leaf's resolved duration attribute in its channel's units.
func (g *Graph) leafDuration(n *core.Node) (time.Duration, bool) {
	if g.opts.DurationOf != nil {
		return g.opts.DurationOf(n)
	}
	r := g.Resolved(n)
	if !r.HasDuration {
		return 0, false
	}
	dur, err := inUnitsOf(r, r.Duration)
	return dur, err == nil
}

// inUnitsOf converts q with the rates of r's channel; a node without one
// converts time alone.
func inUnitsOf(r *core.Resolved, q units.Quantity) (time.Duration, error) {
	var rates units.Rates
	if r.Channel != nil {
		rates = r.Channel.Rates
	}
	return units.NewResolver(rates).Duration(q)
}

// eventOf resolves an arc endpoint to an event id.
func (g *Graph) eventOf(n *core.Node, ep core.EndPoint) EventID {
	if ep == core.End {
		return g.End(n)
	}
	return g.Begin(n)
}

// childByName is core.Node's by-name child lookup backed by the graph's
// memo: first child carrying the name wins, matching Resolve's semantics.
func (g *Graph) childByName(p *core.Node, name string) *core.Node {
	if g.nameIdx == nil {
		g.nameIdx = make(map[*core.Node]map[string]*core.Node)
	}
	m, ok := g.nameIdx[p]
	if !ok {
		m = make(map[string]*core.Node, p.NumChildren())
		for _, c := range p.Children() {
			if nm := c.Name(); nm != "" {
				if _, dup := m[nm]; !dup {
					m[nm] = c
				}
			}
		}
		g.nameIdx[p] = m
	}
	return m[name]
}

// resolveArc resolves an arc's endpoints like core.Node.ResolveArc, with
// named children looked up through the memoized index.
func (g *Graph) resolveArc(n *core.Node, a core.SyncArc) (src, dst *core.Node, err error) {
	if src, err = n.ResolveVia(a.Source, g.childByName); err != nil {
		return nil, nil, err
	}
	if dst, err = n.ResolveVia(a.Dest, g.childByName); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// Build constructs the constraint graph for the document. It resolves the
// document once (core.Resolve), lays the event table out in the
// resolution's pre-order, and emits every node's constraints into the
// graph's pool.
func Build(d *core.Document, opts Options) (*Graph, error) {
	res := core.Resolve(d)
	nodes := len(res)
	g := &Graph{
		doc:       d,
		events:    make([]Event, 0, 2*nodes),
		nodeIndex: make(map[*core.Node]int32, nodes),
		res:       res,
		blocks:    make([][2]span, nodes),
		arcRefs:   make([][]ArcRef, nodes),
		opts:      opts,
	}
	for k := range res {
		n := res[k].Node
		g.nodeIndex[n] = int32(k)
		g.events = append(g.events,
			Event{Node: n, End: core.Begin},
			Event{Node: n, End: core.End})
	}

	// Emit constraints into one arena, the pool, in pre-order: it is the
	// constraint list as it stands.
	g.pool = make([]Constraint, 0, 4*nodes)
	for k := range res {
		start := int32(len(g.pool))
		g.pool = g.emitStructural(g.pool, int32(k))
		mid := int32(len(g.pool))
		refs, err := g.emitArcs(int32(k))
		if err != nil {
			return nil, err
		}
		g.blocks[k] = [2]span{{start, mid}, {mid, int32(len(g.pool))}}
		g.arcRefs[k] = refs
	}
	g.consCount, g.ordered = len(g.pool), true
	return g, nil
}

// NumConstraints reports the number of live constraints.
func (g *Graph) NumConstraints() int { return g.consCount }

// lower appends c as t[v] ≥ t[u] + w, i.e. t[u] − t[v] ≤ −w (edge v→u).
func lower(buf []Constraint, u, v EventID, w time.Duration, c Constraint) []Constraint {
	c.U, c.V, c.W = v, u, -w
	return append(buf, c)
}

// upper appends c as t[v] ≤ t[u] + w (edge u→v).
func upper(buf []Constraint, u, v EventID, w time.Duration, c Constraint) []Constraint {
	c.U, c.V, c.W = u, v, w
	return append(buf, c)
}

// about describes a structural constraint by its note's words and the
// node they name.
func about(words string, n *core.Node) Constraint {
	return Constraint{Kind: KindStructural, words: words, node: n}
}

// emitStructural encodes the default synchronization arcs of section 5.3.1:
//
//   - "Within a sequential node, a default synchronization arc exists from
//     the starting node of the arc to its sequentially first child. There
//     are also arcs from the end of leaf nodes to the start of the successor
//     leaf. Finally, an arc exists from the last child of a sequential node
//     to the end of its parent."
//   - "Parallel nodes have default arcs from the parallel parent node to
//     each of the children ... synchronization arcs also exist from the end
//     of each of the children to the end of the parent."
//
// The seq relation is "start the successor as soon as possible": a lower
// bound whose earliest solution is equality. The par end relation is "start
// the successor when the slowest parallel node finishes": end(parent) is
// bounded below by every child's end, and the earliest solution is the max.
func (g *Graph) emitStructural(buf []Constraint, k int32) []Constraint {
	opts := g.opts
	n := g.events[2*k].Node
	nb, ne := EventID(2*k), EventID(2*k+1)

	// Every node runs forward in time.
	buf = lower(buf, nb, ne, 0, about("end after begin of ", n))

	if n.Type.IsLeaf() {
		dur, known := g.leafDuration(n)
		if !known {
			dur = opts.DefaultLeafDuration
		}
		if dur > 0 {
			buf = lower(buf, nb, ne, dur, Constraint{Kind: KindDuration, words: "duration ", node: n})
			if opts.RigidLeaves {
				buf = upper(buf, nb, ne, dur, Constraint{Kind: KindDuration, words: "rigid duration ", node: n})
			}
		}
		return buf
	}

	children := n.Children()
	switch n.Type {
	case core.Seq:
		prev := EventID(-1)
		for i, c := range children {
			cb, ce := g.Begin(c), g.End(c)
			if i == 0 {
				buf = lower(buf, nb, cb, 0, about("seq parent begin to first child ", c))
			} else {
				buf = lower(buf, prev, cb, 0, about("seq successor ", c))
				if !opts.SeqGaps {
					// Gap-free: the successor begins exactly when the
					// predecessor ends, so delays propagate backwards as
					// stretch (freeze-frame) rather than dead air.
					buf = upper(buf, prev, cb, 0, about("seq gap-free adjacency before ", c))
				}
			}
			prev = ce
		}
		if len(children) > 0 {
			buf = lower(buf, prev, ne, 0, about("seq last child to parent end ", n))
			if !opts.SeqGaps {
				buf = upper(buf, prev, ne, 0, about("seq parent ends with last child ", n))
			}
		}
	case core.Par:
		for _, c := range children {
			cb, ce := g.Begin(c), g.End(c)
			buf = lower(buf, nb, cb, 0, about("par parent begin to child ", c))
			buf = lower(buf, ce, ne, 0, about("par child end to parent end ", c))
		}
	}
	return buf
}

// emitArcs encodes the node's explicit synchronization arcs via the
// synchronization equation: with tref = t[srcEvent] + offset,
//
//	tref + δ ≤ t[dstEvent] ≤ tref + ε.
//
// The offset is converted with the source node's channel rates ("offsets may
// be expressed in terms of media-dependent units"); δ and ε with the
// destination's. The constraints are appended to the pool.
func (g *Graph) emitArcs(k int32) ([]ArcRef, error) {
	r := &g.res[k]
	n := r.Node
	if r.ArcsErr != nil {
		return nil, r.ArcsErr
	}
	refs := make([]ArcRef, 0, len(r.Arcs)) // constraints point into it
	for i, a := range r.Arcs {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("sched: %s arc %d: %w", n.PathString(), i, err)
		}
		src, dst, err := g.resolveArc(n, a)
		if err != nil {
			return nil, fmt.Errorf("sched: %s arc %d: %w", n.PathString(), i, err)
		}
		refs = append(refs, ArcRef{Node: n, Index: i, Arc: a})

		srcEv := g.eventOf(src, a.SrcEnd)
		dstEv := g.eventOf(dst, a.DestEnd)

		offset, err := inUnitsOf(g.Resolved(src), a.Offset)
		if err != nil {
			return nil, fmt.Errorf("sched: %s arc %d offset: %w", n.PathString(), i, err)
		}
		dstRes := g.Resolved(dst)
		minD, err := inUnitsOf(dstRes, a.MinDelay)
		if err != nil {
			return nil, fmt.Errorf("sched: %s arc %d min_delay: %w", n.PathString(), i, err)
		}
		c := Constraint{Kind: KindArc, Arc: &refs[i]}
		g.pool = lower(g.pool, srcEv, dstEv, offset+minD, c)
		if !units.IsInfinite(a.MaxDelay) {
			maxD, err := inUnitsOf(dstRes, a.MaxDelay)
			if err != nil {
				return nil, fmt.Errorf("sched: %s arc %d max_delay: %w", n.PathString(), i, err)
			}
			g.pool = upper(g.pool, srcEv, dstEv, offset+maxD, c)
		}
	}
	return refs, nil
}

// RuntimeLower returns the runtime constraint t[v] ≥ t[u] + w: presentation
// environments pass such bounds to SolveFrom to inject device latencies
// and interaction delays (section 5.3.3 case 2 analysis). note words the
// constraint for its Note.
func RuntimeLower(u, v EventID, w time.Duration, note func() string) Constraint {
	return Constraint{U: v, V: u, W: -w, Kind: KindRuntime, note: note} // as lower writes it
}

// arcKey identifies an arc by carrier node and index.
type arcKey struct {
	node  *core.Node
	index int
}

func keyOf(r ArcRef) arcKey { return arcKey{node: r.Node, index: r.Index} }
