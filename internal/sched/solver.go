package sched

import (
	"cmp"
	"slices"

	"repro/internal/core"
)

// Solver is the reusable, incrementally reschedulable solver state: the
// arena-backed constraint graph and the last schedule. A Solver is built
// once per document; after edits recorded in the document's change log (via
// internal/edit or the cmif facade), Reschedule patches only the constraint
// blocks of the edited nodes. It keeps the graph laid out by event for
// life, moving the edges of each block it replaces, and re-solves from the
// last pass's labels, checking only the constraints the patch changed.
// Whenever that warm pass cannot answer, it solves the patched graph whole,
// through the relax loop Graph.Solve runs, on scratch the Solver owns.
//
// A Solver is not safe for concurrent use.
type Solver struct {
	doc       *core.Document
	buildOpts Options
	solveOpts SolveOptions

	g      *Graph
	cursor uint64
	// broken marks a graph that no longer matches the document (a patch
	// or rebuild failed half-way): it must be rebuilt before it can be
	// solved again.
	broken bool
	// last is the current schedule: nil until a solve succeeds, and again
	// after any pass fails.
	last *Schedule

	// sc is the relax loop's arena, sized to the document and kept across
	// passes. After a pass that dropped nothing, its labels satisfy every
	// constraint of g as it was solved, and feasible says so.
	sc       solveScratch
	feasible bool
	// fwd and rev lay every constraint of g out by event, forward (by U)
	// and reversed (by V); carriers holds every node that carries arcs.
	// They are made on g's first patch and follow every block it
	// replaces. fresh lists the blocks the current patch put in: the only
	// constraints the labels have not been checked against.
	fwd, rev keptRows
	carriers map[*core.Node]struct{}
	fresh    [][]Constraint
	// dead counts the nodes tombstoned in g.
	dead int

	// rebuilds and solves count graph rebuilds and solves since
	// NewSolver; warm counts the solves the warm pass answered.
	rebuilds, solves, warm int
}

// NewSolver builds the constraint graph for the document and returns a
// solver positioned at the document's current generation.
func NewSolver(d *core.Document, buildOpts Options, solveOpts SolveOptions) (*Solver, error) {
	g, err := Build(d, buildOpts)
	if err != nil {
		return nil, err
	}
	return &Solver{
		doc:       d,
		buildOpts: buildOpts,
		solveOpts: solveOpts,
		g:         g,
		cursor:    d.Generation(),
	}, nil
}

// Graph returns the solver's live constraint graph.
func (s *Solver) Graph() *Graph { return s.g }

// Schedule computes the full schedule, (re)building the graph first when
// the document changed since the solver last saw it. The result is
// identical to Graph.Solve on the same constraint system.
func (s *Solver) Schedule() (*Schedule, error) {
	if s.cursor != s.doc.Generation() || s.broken {
		if err := s.rebuild(); err != nil {
			return nil, err
		}
	}
	return s.solve()
}

// rebuild replaces the graph with a fresh Build of the document.
func (s *Solver) rebuild() error {
	s.feasible, s.fwd, s.rev, s.carriers, s.dead = false, keptRows{}, keptRows{}, nil, 0
	g, err := Build(s.doc, s.buildOpts)
	if err != nil {
		s.last, s.broken = nil, true
		return err
	}
	s.g, s.cursor, s.broken = g, s.doc.Generation(), false
	s.rebuilds++
	return nil
}

// solve brings the schedule up to date with the graph. When the labels
// of the last pass hold, the warm pass re-solves from them (resweep).
// Otherwise, or when the warm pass meets a cycle, the relax loop runs over
// g's flat list, seeded with the last schedule's times when it solved this
// graph: event ids are stable across patches and any starting labels are
// sound.
func (s *Solver) solve() (*Schedule, error) {
	s.solves++
	// The layout is made on the first patch, and a runtime constraint
	// added to the live graph is not in it.
	if s.feasible && s.carriers != nil && len(s.g.runtime) == 0 {
		if dist := s.sc.resweep(&s.fwd.adjacency, &s.rev.adjacency, len(s.g.events), s.fresh); dist != nil {
			s.warm++
			s.last = s.g.schedule(dist, nil)
			return s.last, nil
		}
	}
	cons := s.g.list()
	if s.last != nil && s.last.graph == s.g {
		s.sc.seed = s.last.times
	}
	var err error
	s.last, err = s.g.solve(&s.sc, cons, s.solveOpts)
	s.sc.seed = nil
	s.feasible = err == nil && len(s.last.Dropped) == 0
	return s.last, err
}

// index lays g out as fwd and rev and collects its arc carriers, once per
// graph, before its first patch.
func (s *Solver) index() {
	g := s.g
	n, cons := len(g.events), g.list()
	count := make([]int32, n)
	s.fwd = keep(layOut(adjacency{}, count, n, cons, nil, false))
	s.rev = keep(layOut(adjacency{}, count, n, cons, nil, true))
	s.carriers = map[*core.Node]struct{}{}
	for node, k := range g.nodeIndex {
		s.noteCarrier(node, k)
	}
}

// noteCarrier adds node n (index k) to the carriers if it carries arcs.
func (s *Solver) noteCarrier(n *core.Node, k int32) {
	if r := &s.g.res[k]; len(r.Arcs) > 0 || r.ArcsErr != nil || len(s.g.arcRefs[k]) > 0 {
		s.carriers[n] = struct{}{}
	}
}

// replaceBlock moves an owner's edges in fwd and rev from its old block to
// neu, and lists neu as fresh.
func (s *Solver) replaceBlock(old, neu []Constraint) {
	for i := range old {
		c := &old[i]
		s.fwd.remove(c.U, c.V, c.W)
		s.rev.remove(c.V, c.U, c.W)
	}
	for i := range neu {
		c := &neu[i]
		s.fwd.add(c.U, c.V, c.W)
		s.rev.add(c.V, c.U, c.W)
	}
	if len(neu) > 0 {
		s.fresh = append(s.fresh, neu)
	}
}

// Reschedule brings the schedule up to date with the document's change log.
// Unrecorded or document-wide changes fall back to a full rebuild; tracked
// edits patch the constraint blocks of the touched nodes, and the patched
// graph is re-solved, warm when it can be, unless no constraint changed.
func (s *Solver) Reschedule() (*Schedule, error) {
	if s.last == nil {
		return s.Schedule()
	}
	changes := s.doc.ChangesSince(s.cursor)
	s.cursor = s.doc.Generation()
	if len(changes) == 0 {
		return s.last, nil
	}
	if s.carriers == nil {
		s.index()
	}
	s.fresh = s.fresh[:0]

	p := patchPlan{
		dirtyStruct: map[*core.Node]bool{},
		dirtyArcs:   map[*core.Node]bool{},
	}
	for _, c := range changes {
		switch c.Kind {
		case core.ChangeGlobal:
			p.full = true
		case core.ChangeAttr:
			// Any attribute may feed the duration source; "channel" also
			// changes the unit conversion of arcs referencing the
			// subtree — and a "style" edit can do the same indirectly,
			// since styles may define a channel — so every arc block is
			// re-derived for either.
			p.markSubtree(c.Node)
			if c.Attr == "channel" || c.Attr == "style" {
				p.reresolveArcs = true
			}
		case core.ChangeArcs:
			p.dirtyArcs[c.Node] = true
		case core.ChangeInsert:
			s.insertSubtree(c.Node)
			p.markSubtree(c.Node)
			p.markArcs(c.Node)
			p.dirtyStruct[c.Parent] = true
			p.structural()
		case core.ChangeRemove:
			s.tombstoneSubtree(c.Node, &p)
			p.dirtyStruct[c.Parent] = true
			p.structural()
		case core.ChangeMove:
			p.markSubtree(c.Node)
			p.dirtyStruct[c.OldParent] = true
			p.dirtyStruct[c.Parent] = true
			p.structural()
		case core.ChangeRename:
			p.reresolveArcs = true
		default:
			p.full = true
		}
		if p.full {
			break
		}
	}
	// Deleted nodes leave tombstones, which every pass still extracts
	// times for: once they fill half the event table, compact it.
	if p.full || s.dead > len(s.g.events)/4 {
		if err := s.rebuild(); err != nil {
			return nil, err
		}
		return s.solve()
	}
	if err := s.applyPatch(&p); err != nil {
		s.last, s.broken, s.feasible = nil, true, false
		return nil, err
	}
	if !p.changed {
		return s.last, nil
	}
	return s.solve()
}

// patchPlan accumulates what an edit batch dirtied.
type patchPlan struct {
	full bool
	// dirtyStruct nodes get their structural blocks re-emitted;
	// dirtySubtrees extends that to whole subtrees (attribute inheritance),
	// re-resolved first.
	dirtyStruct   map[*core.Node]bool
	dirtySubtrees []*core.Node
	// dirtyArcs nodes get their arc blocks re-emitted; reresolveArcs
	// re-derives every arc block in the document (paths or unit rates may
	// have changed meaning).
	dirtyArcs     map[*core.Node]bool
	reresolveArcs bool
	// changed reports that the patch changed the constraint system, so the
	// last schedule no longer holds.
	changed bool
}

func (p *patchPlan) markSubtree(n *core.Node) { p.dirtySubtrees = append(p.dirtySubtrees, n) }
func (p *patchPlan) markArcs(n *core.Node) {
	root := n
	root.Walk(func(m *core.Node) bool {
		p.dirtyArcs[m] = true
		return true
	})
}
func (p *patchPlan) structural() {
	p.reresolveArcs = true
	p.changed = true
}

// insertSubtree assigns event ids and block slots to every node of a newly
// inserted subtree.
func (s *Solver) insertSubtree(root *core.Node) {
	g := s.g
	root.Walk(func(m *core.Node) bool {
		if _, ok := g.nodeIndex[m]; ok {
			return true
		}
		g.nodeIndex[m] = int32(len(g.events) / 2)
		g.events = append(g.events,
			Event{Node: m, End: core.Begin},
			Event{Node: m, End: core.End})
		g.res = append(g.res, core.Resolved{})
		g.structBlocks = append(g.structBlocks, nil)
		g.arcBlocks = append(g.arcBlocks, nil)
		g.arcRefs = append(g.arcRefs, nil)
		s.fwd.addRows(2)
		s.rev.addRows(2)
		return true
	})
}

// tombstoneSubtree retires the events and blocks of a detached subtree.
func (s *Solver) tombstoneSubtree(root *core.Node, p *patchPlan) {
	g := s.g
	root.Walk(func(m *core.Node) bool {
		k, ok := g.nodeIndex[m]
		if !ok {
			return true
		}
		// Constraints that pointed at the removed events disappear with
		// the owner blocks; the events they shared with survivors are
		// re-derived via the dirty parent.
		g.events[2*k] = Event{}
		g.events[2*k+1] = Event{}
		g.consCount -= len(g.structBlocks[k]) + len(g.arcBlocks[k])
		s.replaceBlock(g.structBlocks[k], nil)
		s.replaceBlock(g.arcBlocks[k], nil)
		g.structBlocks[k] = nil
		g.arcBlocks[k] = nil
		g.arcRefs[k] = nil
		delete(g.nodeIndex, m)
		s.dead++
		delete(p.dirtyStruct, m)
		delete(p.dirtyArcs, m)
		return true
	})
}

// applyPatch re-emits the dirty blocks, moves the edges of every block
// that changed, and records in p.changed whether any constraint differs
// from before.
func (s *Solver) applyPatch(p *patchPlan) error {
	g := s.g
	g.invalidate()

	// Re-resolve subtree dirt top down and expand it into concrete owners
	// (skipping nodes that were removed again later in the batch).
	for _, root := range p.dirtySubtrees {
		root.Walk(func(m *core.Node) bool {
			if k, ok := g.nodeIndex[m]; ok {
				g.res[k] = g.doc.ResolveNode(m, g.Resolved(m.Parent()))
				s.noteCarrier(m, k)
				p.dirtyStruct[m] = true
			}
			return true
		})
	}

	// Re-emit structural blocks.
	for n := range p.dirtyStruct {
		k, ok := g.nodeIndex[n]
		if !ok {
			continue
		}
		neu := g.emitStructural(nil, k)
		if blocksDiffer(g.structBlocks[k], neu) {
			p.changed = true
			s.replaceBlock(g.structBlocks[k], neu)
		}
		g.consCount += len(neu) - len(g.structBlocks[k])
		g.structBlocks[k] = neu
	}

	// Re-emit arc blocks: the explicitly dirtied ones, plus — after
	// structural edits — every node carrying arcs, since relative paths
	// may now resolve to different nodes. Each carrier is re-resolved
	// first: a move or rename rewrites arc paths with no record of its
	// own.
	reemitArcs := func(n *core.Node) error {
		k, ok := g.nodeIndex[n]
		if !ok {
			return nil
		}
		g.res[k] = g.doc.ResolveNode(n, g.Resolved(n.Parent()))
		neu, refs, err := g.emitArcs(nil, k)
		if err != nil {
			return err
		}
		if blocksDiffer(g.arcBlocks[k], neu) {
			p.changed = true
			s.replaceBlock(g.arcBlocks[k], neu)
		}
		g.consCount += len(neu) - len(g.arcBlocks[k])
		g.arcBlocks[k] = neu
		g.arcRefs[k] = refs
		s.noteCarrier(n, k)
		return nil
	}
	if p.reresolveArcs {
		// Paths may bind differently now; the name memo is stale.
		g.nameIdx = nil
		// Visit the carriers and the dirtied nodes in document order, so
		// that the first arc that fails to resolve is the one Build
		// reports.
		visit := make([]*core.Node, 0, len(s.carriers)+len(p.dirtyArcs))
		for n := range s.carriers {
			k, ok := g.nodeIndex[n]
			if !ok {
				delete(s.carriers, n)
				continue
			}
			if r := &g.res[k]; len(g.arcRefs[k]) == 0 && !p.dirtyArcs[n] && len(r.Arcs) == 0 && r.ArcsErr == nil {
				delete(s.carriers, n)
				continue
			}
			visit = append(visit, n)
		}
		for n := range p.dirtyArcs {
			if _, ok := s.carriers[n]; !ok {
				visit = append(visit, n)
			}
		}
		slices.SortFunc(visit, docOrder)
		for _, n := range visit {
			if err := reemitArcs(n); err != nil {
				return err
			}
		}
		return nil
	}
	for n := range p.dirtyArcs {
		if err := reemitArcs(n); err != nil {
			return err
		}
	}
	return nil
}

// blocksDiffer reports whether an owner's re-emitted constraint block
// differs from its old one in a field the schedule depends on, the arc
// reference included (a dropped arc is reported by it).
func blocksDiffer(old, neu []Constraint) bool {
	if len(old) != len(neu) {
		return true
	}
	for i := range old {
		o, n := &old[i], &neu[i]
		if o.U != n.U || o.V != n.V || o.W != n.W || o.Kind != n.Kind || o.Kind == KindArc && *o.Arc != *n.Arc {
			return true
		}
	}
	return false
}

// docOrder compares two nodes of one tree by document order (pre-order):
// an ancestor precedes its descendants, siblings go by index.
func docOrder(a, b *core.Node) int {
	da, db := a.Depth(), b.Depth()
	for ; da > db; da-- {
		if a = a.Parent(); a == b {
			return 1
		}
	}
	for ; db > da; db-- {
		if b = b.Parent(); b == a {
			return -1
		}
	}
	for a != b && a.Parent() != b.Parent() {
		a, b = a.Parent(), b.Parent()
	}
	return cmp.Compare(a.Index(), b.Index())
}
