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
// blocks of the edited nodes. It lays the graph out by event on its first
// solve and keeps that layout for the graph's life, moving the edges of
// each block it replaces. A pass re-solves warm from the last pass's
// labels, checking only the constraints the patch changed; whenever that
// cannot answer, it runs Graph.Solve's relax loop over the same layout, on
// scratch the Solver owns.
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
	// and reversed (by V), as kept rows; carriers holds every node that
	// carries arcs. The rows are made on g's first solve and carriers on
	// its first patch, and both follow every block a patch replaces. The
	// blocks a patch puts in lie in g's pool from fresh on: the only
	// constraints the labels have not been checked against.
	fwd, rev adjacency
	carriers map[*core.Node]struct{}
	fresh    int
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
	s.feasible, s.fwd, s.rev, s.carriers, s.dead, s.fresh = false, adjacency{}, adjacency{}, nil, 0, 0
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
// the kept rows, seeded with the last schedule's times when it solved this
// graph: event ids are stable across patches and any starting labels are
// sound. Patches move edges within their rows, so a conflict is reported
// from g laid out afresh in list order, as a cold solve reports it.
func (s *Solver) solve() (*Schedule, error) {
	s.solves++
	g, n, sc := s.g, len(s.g.events), &s.sc
	sc.grow(n)
	if s.feasible {
		if dist := sc.resweep(&s.fwd, &s.rev, n, [][]Constraint{g.pool[s.fresh:]}); dist != nil {
			s.warm++
			s.last = g.schedule(dist, nil)
			return s.last, nil
		}
	}
	cons := g.list()
	if s.fwd.lim == nil {
		s.fwd = layOut(adjacency{}, make([]int32, n), n, cons, make([]int32, n), false)
		s.rev = layOut(adjacency{}, make([]int32, n), n, cons, make([]int32, n), true)
	}
	if s.last != nil && s.last.graph == g {
		sc.seed = s.last.times
	}
	sc.on = sc.on[:0]
	dropped, at := sc.settle(&s.fwd, n, cons, s.solveOpts.Relax)
	sc.seed = nil
	s.feasible = at < 0 && len(dropped) == 0
	if at >= 0 {
		s.last = nil
		sc.adj = layOut(sc.adj, sc.pos, n, cons, nil, false)
		return nil, &ConflictError{Cycle: sc.conflict(&sc.adj, n, cons, -1)}
	}
	s.last = g.schedule(sc.earliest(&s.rev, n, 0), dropped)
	return s.last, nil
}

// noteCarrier adds node n (index k) to the carriers if it carries arcs.
func (s *Solver) noteCarrier(n *core.Node, k int32) {
	if r := &s.g.res[k]; len(r.Arcs) > 0 || r.ArcsErr != nil || len(s.g.arcRefs[k]) > 0 {
		s.carriers[n] = struct{}{}
	}
}

// replace makes the block emitted at the pool's tail from start node k's
// block *b if it differs from *b, moving the edges of fwd and rev from one
// to the other and recording in p that the system changed; otherwise it
// drops the tail. It reports whether the block changed.
func (s *Solver) replace(b *span, start int32, p *patchPlan) bool {
	g := s.g
	neu := span{start, int32(len(g.pool))}
	if !blocksDiffer(g.pool[b.at:b.end], g.pool[neu.at:]) {
		g.pool = g.pool[:start]
		return false
	}
	p.changed = true
	for ci := b.at; ci < b.end; ci++ {
		s.fwd.remove(g.pool[ci].U, ci)
		s.rev.remove(g.pool[ci].V, ci)
	}
	for ci := neu.at; ci < neu.end; ci++ {
		c := &g.pool[ci]
		s.fwd.add(c.U, csrEdge{ci: ci, to: int32(c.V), w: int64(c.W)})
		s.rev.add(c.V, csrEdge{ci: ci, to: int32(c.U), w: int64(c.W)})
	}
	g.consCount += int(neu.end-neu.at) - int(b.end-b.at)
	*b = neu
	return true
}

// compact slides the live blocks down over the replaced ones and renames
// the edges of fwd and rev after their new places.
func (s *Solver) compact() {
	g := s.g
	// to[ci] marks a live constraint with 1, then counts the live ones
	// before ci: its new reference, and a new bound for a block.
	to, n := make([]int32, len(g.pool)+1), int32(0)
	for _, bs := range g.blocks {
		for _, b := range bs {
			for ci := b.at; ci < b.end; ci++ {
				to[ci] = 1
			}
		}
	}
	for ci := range g.pool {
		live := to[ci] == 1
		if to[ci] = n; live {
			g.pool[n] = g.pool[ci]
			n++
		}
	}
	to[len(g.pool)] = n
	clear(g.pool[n:])
	g.pool = g.pool[:n]
	for k := range g.blocks {
		for i, b := range g.blocks[k] {
			g.blocks[k][i] = span{to[b.at], to[b.end]}
		}
	}
	for _, a := range []*adjacency{&s.fwd, &s.rev} {
		for u := range a.off {
			for e := a.off[u]; e < a.end[u]; e++ {
				a.edge[e].ci = to[a.edge[e].ci]
			}
		}
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
		s.carriers = map[*core.Node]struct{}{}
		for node, k := range s.g.nodeIndex {
			s.noteCarrier(node, k)
		}
	}

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
	// Compact the pool once the blocks it replaced fill half of it.
	if len(s.g.pool) > 2*s.g.consCount {
		s.compact()
	}
	s.fresh = len(s.g.pool)
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
		g.blocks = append(g.blocks, [2]span{})
		g.arcRefs = append(g.arcRefs, nil)
		s.fwd.addNode()
		s.rev.addNode()
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
		for i := range g.blocks[k] {
			s.replace(&g.blocks[k][i], int32(len(g.pool)), p)
		}
		g.arcRefs[k] = nil
		delete(g.nodeIndex, m)
		s.dead++
		delete(p.dirtyStruct, m)
		delete(p.dirtyArcs, m)
		return true
	})
}

// applyPatch re-emits the dirty blocks into the pool, moves the edges of
// every block that changed, and records in p.changed whether any
// constraint differs from before.
func (s *Solver) applyPatch(p *patchPlan) error {
	g := s.g
	g.ordered = false
	if p.reresolveArcs {
		// The tree's shape may have changed, and its node order with it.
		g.order = nil
	}

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
		start := int32(len(g.pool))
		g.pool = g.emitStructural(g.pool, k)
		s.replace(&g.blocks[k][0], start, p)
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
		start := int32(len(g.pool))
		refs, err := g.emitArcs(k)
		if err != nil {
			return err
		}
		if s.replace(&g.blocks[k][1], start, p) {
			g.arcRefs[k] = refs
		}
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
