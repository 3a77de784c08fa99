package sched

import (
	"sort"

	"repro/internal/core"
)

// Component decomposition. The root's begin event (id 0) and end event
// (id 1) are "hubs": the begin is pinned at t=0 and the end is a pure max
// over its lower bounds, so the rest of the constraint graph falls apart
// into weakly-connected components that can be solved independently — one
// per arm of a par-of-seq document. The incremental Solver uses them as its
// unit of reuse: an edit re-solves only the components it dirtied. Each
// component is solved over its own events plus local copies of the two
// hubs; the global root-end time is the max of the per-component values.
//
// The separation is exact as long as no constraint makes any event depend
// on the root end's time: a constraint t[rootEnd] − t[u] ≤ W with u outside
// the hubs (an upper bound on the root end, or equivalently a lower bound
// on some event relative to it) couples components through the hub, and so
// does a droppable explicit arc between the two hubs. decompose detects
// both patterns and falls back to one fused component, which is simply the
// global problem run through the same loop.

// consRef names one constraint by its storage slot: the owning node's
// index, which of the node's two blocks, and the position inside it.
// owner < 0 addresses the runtime block.
type consRef struct {
	owner int32
	arc   bool
	idx   int32
}

// constraintAt resolves a reference against the live blocks.
func (g *Graph) constraintAt(r consRef) *Constraint {
	if r.owner < 0 {
		return &g.runtime[r.idx]
	}
	if r.arc {
		return &g.arcBlocks[r.owner][r.idx]
	}
	return &g.structBlocks[r.owner][r.idx]
}

// forEachRef visits every constraint in document order (per node: the
// structural block then the arc block; runtime constraints last).
func (g *Graph) forEachRef(f func(r consRef, c *Constraint)) {
	g.doc.Root.Walk(func(n *core.Node) bool {
		k, ok := g.nodeIndex[n]
		if !ok {
			// Untracked insertion behind the graph's back; the node has
			// no blocks to visit.
			return true
		}
		for i := range g.structBlocks[k] {
			f(consRef{owner: k, arc: false, idx: int32(i)}, &g.structBlocks[k][i])
		}
		for i := range g.arcBlocks[k] {
			f(consRef{owner: k, arc: true, idx: int32(i)}, &g.arcBlocks[k][i])
		}
		return true
	})
	for i := range g.runtime {
		f(consRef{owner: -1, idx: int32(i)}, &g.runtime[i])
	}
}

// compSet is one decomposition of a graph's constraint system.
type compSet struct {
	// fused reports that hub separation was unsafe and everything lives in
	// one component.
	fused bool
	// comp maps every event to its component, -1 for hubs and tombstones.
	comp []int32
	// events and cons list each component's members; hub holds the
	// hub-hub constraints replicated into every component's local solve.
	events [][]EventID
	cons   [][]consRef
	hub    []consRef
	// reps is each component's representative: its minimum event id. It
	// identifies a component stably across re-decompositions as long as
	// the component's membership is unchanged.
	reps []EventID
}

// decompose partitions the graph's constraint system. It returns nil when
// there is nothing to decompose (no live events beyond the root's), in
// which case callers fall back to the plain solve.
func (g *Graph) decompose() *compSet {
	n := len(g.events)
	if n <= 2 {
		return nil
	}

	// Union-find over non-hub events, with each set's root kept at its
	// minimum id for deterministic representatives.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		switch {
		case ra == rb:
		case ra < rb:
			parent[rb] = ra
		default:
			parent[ra] = rb
		}
	}

	isHub := func(e EventID) bool { return e <= 1 }
	fused := false
	g.forEachRef(func(r consRef, c *Constraint) {
		if c.V == 1 && !isHub(c.U) {
			// The root end's time would feed back into a component.
			fused = true
		}
		if isHub(c.U) && isHub(c.V) && c.Kind == KindArc {
			// A droppable hub-hub arc must be relaxed globally.
			fused = true
		}
		if !isHub(c.U) && !isHub(c.V) {
			union(int32(c.U), int32(c.V))
		}
	})

	cs := &compSet{fused: fused, comp: make([]int32, n)}
	for i := range cs.comp {
		cs.comp[i] = -1
	}

	if fused {
		// One component holding every live non-hub event and every
		// constraint (hub-incident ones included): the global problem.
		var evs []EventID
		for e := 2; e < n; e++ {
			if g.events[e].Node == nil {
				continue
			}
			cs.comp[e] = 0
			evs = append(evs, EventID(e))
		}
		if len(evs) == 0 {
			return nil
		}
		var all []consRef
		g.forEachRef(func(r consRef, c *Constraint) { all = append(all, r) })
		cs.events = [][]EventID{evs}
		cs.cons = [][]consRef{all}
		cs.reps = []EventID{evs[0]}
		return cs
	}

	// Number components by ascending representative (min event id).
	compOf := make(map[int32]int32)
	for e := 2; e < n; e++ {
		if g.events[e].Node == nil {
			continue
		}
		root := find(int32(e))
		ci, ok := compOf[root]
		if !ok {
			ci = int32(len(cs.events))
			compOf[root] = ci
			cs.events = append(cs.events, nil)
			cs.cons = append(cs.cons, nil)
			cs.reps = append(cs.reps, EventID(e))
		}
		cs.comp[e] = ci
		cs.events[ci] = append(cs.events[ci], EventID(e))
	}
	if len(cs.events) == 0 {
		return nil
	}

	g.forEachRef(func(r consRef, c *Constraint) {
		switch {
		case isHub(c.U) && isHub(c.V):
			cs.hub = append(cs.hub, r)
		case isHub(c.U):
			cs.cons[cs.comp[c.V]] = append(cs.cons[cs.comp[c.V]], r)
		default:
			cs.cons[cs.comp[c.U]] = append(cs.cons[cs.comp[c.U]], r)
		}
	})
	return cs
}

// solveComponent runs the relax loop for one component, writes the solved
// times of its events into s.times (indexed by global event id) and records
// its root-end time and dropped arcs under its representative. The
// component's local problem is its own constraints plus the replicated
// hub-hub constraints, over its events plus local copies of the two hub
// events. With warm set, s.times still holds the component's previous
// solution and seeds the sweep.
func (s *Solver) solveComponent(ci int, warm bool) error {
	g, cs := s.g, s.cs
	evs := cs.events[ci]
	k := len(evs)
	localRB, localRE := EventID(k), EventID(k+1)

	if cap(s.local) < len(g.events) {
		s.local = make([]int32, len(g.events))
	}
	s.local = s.local[:len(g.events)]
	for li, e := range evs {
		s.local[e] = int32(li)
	}
	localize := func(e EventID) EventID {
		switch e {
		case 0:
			return localRB
		case 1:
			return localRE
		default:
			return EventID(s.local[e])
		}
	}
	s.buf = s.buf[:0]
	for _, set := range [2][]consRef{cs.cons[ci], cs.hub} {
		for _, r := range set {
			c := *g.constraintAt(r)
			c.U, c.V = localize(c.U), localize(c.V)
			s.buf = append(s.buf, c)
		}
	}

	// Warm start: seed the feasibility sweep in the previous solution's
	// reverse time order. Lower bounds propagate from later events toward
	// earlier ones, so a latest-first pass settles the unchanged regions of
	// an edited component in one sweep. Correctness never depends on the
	// seed — it only orders the queue.
	s.order = s.order[:0]
	if warm {
		for li := range evs {
			s.order = append(s.order, EventID(li))
		}
		sort.Slice(s.order, func(i, j int) bool {
			a, b := s.order[i], s.order[j]
			if ta, tb := s.times[evs[a]], s.times[evs[b]]; ta != tb {
				return ta > tb
			}
			return a > b
		})
	}

	dist, dropped, cycle := s.sc.solve(k+2, localRB, s.buf, s.order, s.solveOpts.Relax)
	if cycle != nil {
		// Report the conflict in global event ids.
		global := func(e EventID) EventID {
			switch e {
			case localRB:
				return 0
			case localRE:
				return 1
			default:
				return evs[e]
			}
		}
		for i := range cycle {
			cycle[i].U, cycle[i].V = global(cycle[i].U), global(cycle[i].V)
		}
		return &ConflictError{Cycle: cycle}
	}
	for li, e := range evs {
		s.times[e] = timeOf(dist[li])
	}
	rep := cs.reps[ci]
	s.compRe[rep] = timeOf(dist[localRE])
	if len(dropped) > 0 {
		s.compDropped[rep] = dropped
	} else {
		delete(s.compDropped, rep)
	}
	return nil
}
