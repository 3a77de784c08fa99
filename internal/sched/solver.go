package sched

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Solver is the reusable, incrementally reschedulable solver state: the
// arena-backed constraint graph, its component decomposition, and the last
// solution. A Solver is built once per document; after edits recorded in
// the document's change log (via internal/edit or the cmif facade),
// Reschedule patches only the constraint blocks of the edited nodes,
// re-solves only the components whose constraints actually changed — warm
// started from the previous solution — and reuses every other component's
// times verbatim.
//
// A Solver is not safe for concurrent use: it solves its dirty components
// one after another, on scratch it owns for life.
type Solver struct {
	doc       *core.Document
	buildOpts Options
	solveOpts SolveOptions

	g      *Graph
	cursor uint64
	cs     *compSet
	// broken marks a half-applied patch (an arc failed to re-resolve):
	// the graph must be rebuilt before it can be solved again.
	broken bool

	solved bool
	times  []time.Duration
	// compRe and compDropped record each component's local root-end time
	// and dropped May arcs, keyed by the component representative so clean
	// components survive a re-decomposition.
	compRe      map[EventID]time.Duration
	compDropped map[EventID][]ArcRef

	stats SolveStats

	// Scratch kept across passes, sized to the document: the relax loop's
	// arena, the global→local event map, the localized constraint buffer
	// and the warm-start order.
	sc    solveScratch
	local []int32
	buf   []Constraint
	order []EventID
}

// SolveStats describes the last (re)scheduling pass.
type SolveStats struct {
	// Events and Constraints size the live system.
	Events, Constraints int
	// Components counts weakly-connected components; Fused reports the
	// single-component fallback (a constraint coupled components through
	// the root end).
	Components int
	Fused      bool
	// Resolved counts components solved in the last pass; Reused those
	// whose previous solution was carried over untouched.
	Resolved, Reused int
	// FullRebuilds counts how often the solver fell back to rebuilding
	// the graph from scratch (untracked or document-wide changes).
	FullRebuilds int
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

// Stats reports what the last scheduling pass did.
func (s *Solver) Stats() SolveStats { return s.stats }

// Schedule computes the full schedule, solving every component from
// scratch, (re)building the graph first when the document changed since the
// solver last saw it. The result is identical to Graph.Solve on the same
// constraint system.
func (s *Solver) Schedule() (*Schedule, error) {
	if s.cursor != s.doc.Generation() || s.broken {
		g, err := Build(s.doc, s.buildOpts)
		if err != nil {
			return nil, err
		}
		s.g = g
		s.cursor = s.doc.Generation()
		s.broken = false
		s.stats.FullRebuilds++
	}
	return s.solveAll()
}

// solveAll solves every component from scratch and records the solution.
func (s *Solver) solveAll() (*Schedule, error) {
	s.cs = s.g.decompose()
	s.compRe = make(map[EventID]time.Duration)
	s.compDropped = make(map[EventID][]ArcRef)
	s.stats.Reused = 0

	if s.cs == nil {
		// Degenerate document (root only): the plain solve is the
		// component solve.
		sch, err := s.g.Solve(s.solveOpts)
		if err != nil {
			s.solved = false
			return nil, err
		}
		s.times = sch.Times()
		s.solved = true
		s.fillStats(0, 0)
		return sch, nil
	}

	s.times = make([]time.Duration, len(s.g.events))
	for ci := range s.cs.events {
		if err := s.solveComponent(ci, false); err != nil {
			s.solved = false
			return nil, err
		}
	}
	s.mergeHubs()
	s.solved = true
	s.fillStats(len(s.cs.events), 0)
	return s.snapshot(s.aggregateDropped()), nil
}

// mergeHubs assembles the hub times from the per-component results: the
// root begin is the origin, the root end the max over every component's
// local value.
func (s *Solver) mergeHubs() {
	s.times[0] = 0
	var re time.Duration
	for _, t := range s.compRe {
		if t > re {
			re = t
		}
	}
	s.times[1] = re
}

// Reschedule brings the schedule up to date with the document's change log.
// Unrecorded or document-wide changes fall back to a full rebuild; tracked
// edits patch the constraint blocks of the touched nodes and re-solve only
// the dirty components.
func (s *Solver) Reschedule() (*Schedule, error) {
	if !s.solved {
		return s.Schedule()
	}
	changes := s.doc.ChangesSince(s.cursor)
	s.cursor = s.doc.Generation()
	if len(changes) == 0 {
		s.stats.Resolved, s.stats.Reused = 0, len(s.cs.eventsOrNone())
		return s.snapshot(s.aggregateDropped()), nil
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
			p.redecompose = true
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
	if p.full {
		g, err := Build(s.doc, s.buildOpts)
		if err != nil {
			return nil, err
		}
		s.g = g
		s.stats.FullRebuilds++
		return s.solveAll()
	}
	return s.applyPatch(&p)
}

// patchPlan accumulates what an edit batch dirtied.
type patchPlan struct {
	full bool
	// dirtyStruct nodes get their structural blocks re-emitted;
	// dirtySubtrees extends that to whole subtrees (attribute inheritance).
	dirtyStruct   map[*core.Node]bool
	dirtySubtrees []*core.Node
	// dirtyArcs nodes get their arc blocks re-emitted; reresolveArcs
	// re-derives every arc block in the document (paths or unit rates may
	// have changed meaning).
	dirtyArcs     map[*core.Node]bool
	reresolveArcs bool
	redecompose   bool
	// dirtyEvents collects the endpoints of every changed constraint.
	dirtyEvents []EventID
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
	p.redecompose = true
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
		g.structBlocks = append(g.structBlocks, nil)
		g.arcBlocks = append(g.arcBlocks, nil)
		g.arcRefs = append(g.arcRefs, nil)
		g.liveEvents += 2
		s.times = append(s.times, 0, 0)
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
		g.liveEvents -= 2
		g.structBlocks[k] = nil
		g.arcBlocks[k] = nil
		g.arcRefs[k] = nil
		s.times[2*k] = 0
		s.times[2*k+1] = 0
		delete(g.nodeIndex, m)
		delete(p.dirtyStruct, m)
		delete(p.dirtyArcs, m)
		return true
	})
}

// applyPatch re-emits the dirty blocks, re-decomposes if membership could
// have changed, and re-solves only the dirty components.
func (s *Solver) applyPatch(p *patchPlan) (*Schedule, error) {
	g := s.g

	// Expand subtree dirt into concrete owners (skipping nodes that were
	// removed again later in the batch).
	for _, root := range p.dirtySubtrees {
		root.Walk(func(m *core.Node) bool {
			if _, ok := g.nodeIndex[m]; ok {
				p.dirtyStruct[m] = true
			}
			return true
		})
	}

	// Re-emit structural blocks.
	shapeChanged := false
	for n := range p.dirtyStruct {
		k, ok := g.nodeIndex[n]
		if !ok {
			continue
		}
		old := g.structBlocks[k]
		neu := g.emitStructural(nil, n)
		_, shape := diffBlocks(old, neu, &p.dirtyEvents)
		g.consCount += len(neu) - len(old)
		g.structBlocks[k] = neu
		if !shape {
			shapeChanged = true
		}
	}

	// Re-emit arc blocks: the explicitly dirtied ones, plus — after
	// structural edits — every node carrying arcs, since relative paths
	// may now resolve to different nodes.
	reemitArcs := func(n *core.Node) error {
		k, ok := g.nodeIndex[n]
		if !ok {
			return nil
		}
		old := g.arcBlocks[k]
		neu, refs, err := g.emitArcs(nil, n)
		if err != nil {
			return err
		}
		_, shape := diffBlocks(old, neu, &p.dirtyEvents)
		g.consCount += len(neu) - len(old)
		g.arcBlocks[k] = neu
		g.arcRefs[k] = refs
		if !shape {
			shapeChanged = true
		}
		return nil
	}
	if p.reresolveArcs {
		// Paths may bind differently now; the name memo is stale.
		g.nameIdx = nil
		var emitErr error
		g.doc.Root.Walk(func(n *core.Node) bool {
			k, ok := g.nodeIndex[n]
			if !ok {
				return true
			}
			if len(g.arcRefs[k]) == 0 {
				if _, carries := n.Attrs.Get("syncarcs"); !carries {
					return true
				}
			}
			if err := reemitArcs(n); err != nil {
				emitErr = err
				return false
			}
			return true
		})
		if emitErr != nil {
			s.solved, s.broken = false, true
			return nil, emitErr
		}
	} else {
		for n := range p.dirtyArcs {
			if err := reemitArcs(n); err != nil {
				s.solved, s.broken = false, true
				return nil, err
			}
		}
	}
	g.invalidate()

	// Refresh the decomposition when component membership could have
	// changed: structural edits, arc edits, or any block whose shape
	// (constraint endpoints) changed.
	if p.redecompose || shapeChanged || s.cs == nil {
		s.cs = g.decompose()
	}
	if s.cs == nil {
		return s.solveAll()
	}

	// Dirty components: those containing any endpoint of a changed
	// constraint (tombstoned endpoints have no component and need none —
	// their constraints are gone).
	dirty := make([]bool, len(s.cs.events))
	for _, e := range p.dirtyEvents {
		if int(e) < len(s.cs.comp) && s.cs.comp[e] >= 0 {
			dirty[s.cs.comp[e]] = true
		}
	}
	// A component whose recorded solution is missing (freshly split or
	// merged membership) must also be re-solved.
	for ci := range s.cs.events {
		if !dirty[ci] {
			if _, ok := s.compRe[s.cs.reps[ci]]; !ok {
				dirty[ci] = true
			}
		}
	}

	// Re-solve the dirty components, warm-started from their previous
	// times; clean ones keep theirs.
	resolved := 0
	for ci := range dirty {
		if !dirty[ci] {
			continue
		}
		if err := s.solveComponent(ci, true); err != nil {
			s.solved = false
			return nil, err
		}
		resolved++
	}

	// Forget the results of components that no longer exist, and redo the
	// root-end max.
	compRe := make(map[EventID]time.Duration, len(s.cs.events))
	compDropped := make(map[EventID][]ArcRef)
	for _, rep := range s.cs.reps {
		compRe[rep] = s.compRe[rep]
		if d, ok := s.compDropped[rep]; ok {
			compDropped[rep] = d
		}
	}
	s.compRe, s.compDropped = compRe, compDropped
	s.mergeHubs()

	s.fillStats(resolved, len(s.cs.events)-resolved)
	return s.snapshot(s.aggregateDropped()), nil
}

// aggregateDropped lists every component's dropped arcs in component order.
func (s *Solver) aggregateDropped() []ArcRef {
	if s.cs == nil {
		return nil
	}
	var out []ArcRef
	for ci := range s.cs.events {
		out = append(out, s.compDropped[s.cs.reps[ci]]...)
	}
	return out
}

// snapshot wraps the current solution in an immutable Schedule.
func (s *Solver) snapshot(dropped []ArcRef) *Schedule {
	times := make([]time.Duration, len(s.times))
	copy(times, s.times)
	return &Schedule{graph: s.g, times: times, Dropped: dropped}
}

// fillStats records the last pass's shape.
func (s *Solver) fillStats(resolved, reused int) {
	s.stats.Resolved = resolved
	s.stats.Reused = reused
	s.stats.Events = s.g.liveEvents
	s.stats.Constraints = s.g.consCount
	if s.cs == nil {
		s.stats.Components = 0
		s.stats.Fused = false
		return
	}
	s.stats.Components = len(s.cs.events)
	s.stats.Fused = s.cs.fused
}

// eventsOrNone lets a nil-safe caller count components.
func (cs *compSet) eventsOrNone() [][]EventID {
	if cs == nil {
		return nil
	}
	return cs.events
}

// diffBlocks compares an owner's old and new constraint blocks. It appends
// the non-hub endpoints of every differing constraint to dirty. The first
// result reports full equality of the solution-relevant fields, the second
// whether the blocks have the same shape (length and endpoints), which is
// what decomposition reuse depends on.
func diffBlocks(old, neu []Constraint, dirty *[]EventID) (equal, sameShape bool) {
	mark := func(c *Constraint) {
		if c.U > 1 {
			*dirty = append(*dirty, c.U)
		}
		if c.V > 1 {
			*dirty = append(*dirty, c.V)
		}
	}
	if len(old) != len(neu) {
		for i := range old {
			mark(&old[i])
		}
		for i := range neu {
			mark(&neu[i])
		}
		return false, false
	}
	equal, sameShape = true, true
	for i := range old {
		o, n := &old[i], &neu[i]
		if o.U != n.U || o.V != n.V || o.Kind != n.Kind {
			sameShape = false
		}
		if o.U != n.U || o.V != n.V || o.Kind != n.Kind || o.W != n.W {
			equal = false
			mark(o)
			mark(n)
		}
	}
	return equal, sameShape
}

// String summarizes the solver for diagnostics.
func (s *Solver) String() string {
	return fmt.Sprintf("sched.Solver{%d events, %d components, resolved %d, reused %d}",
		s.stats.Events, s.stats.Components, s.stats.Resolved, s.stats.Reused)
}
