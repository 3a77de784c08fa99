package sched

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
)

// ConflictError reports an unsatisfiable set of synchronization constraints:
// the paper's conflict case 1. Cycle lists the constraints forming a
// negative cycle in the difference-constraint graph; their combined windows
// cannot all hold.
type ConflictError struct {
	Cycle []Constraint
}

func (e *ConflictError) Error() string {
	var b strings.Builder
	b.WriteString("sched: unsatisfiable synchronization constraints:")
	for i := range e.Cycle {
		b.WriteString("\n  ")
		b.WriteString(e.Cycle[i].Note())
	}
	return b.String()
}

// MustArcs returns the must-strictness explicit arcs on the conflict cycle.
func (e *ConflictError) MustArcs() []ArcRef {
	var out []ArcRef
	for _, c := range e.Cycle {
		if c.Kind == KindArc && c.Arc.Arc.Strict == core.Must {
			out = append(out, *c.Arc)
		}
	}
	return out
}

// SolveOptions configures the solver.
type SolveOptions struct {
	// Relax enables dropping May arcs to resolve conflicts. An arc is
	// dropped only if it cannot hold together with the non-May constraints
	// and the May arcs kept before it in document order.
	Relax bool
}

// Solve computes the earliest feasible schedule, optionally relaxing May
// arcs. It returns a ConflictError when the constraints cannot be satisfied
// by dropping May arcs alone. It is the full solve over the whole
// constraint system, on an arena made for this call. It only reads the
// graph — Build made its flat constraint list — so concurrent solves of
// one graph stay independent. Solver runs the same loop over the same list
// after patching its graph for edits, on an arena it keeps, and produces
// identical schedules.
func (g *Graph) Solve(opts SolveOptions) (*Schedule, error) {
	return g.solve(&solveScratch{}, g.list(), opts)
}

// SolveFrom re-solves g — plan's graph, or a Clone of it carrying runtime
// constraints — as a perturbation of plan. The arcs plan dropped stay
// dropped, and plan's times seed the feasibility sweep as labels: they
// already satisfy every constraint plan was solved under, so only the new
// ones relax anything. The schedule is exactly what Solve returns for g
// without those arcs (the seed buys speed, never a different answer); its
// Dropped is plan's list followed by the victims opts.Relax allowed on top.
//
// The solve runs over g's list: for a Clone of a graph that has solved,
// the parent's cached flat view followed by the runtime constraints added
// to the clone, neither copied. Plan's dropped arcs are masked out of it,
// not filtered.
func (g *Graph) SolveFrom(plan *Schedule, opts SolveOptions) (*Schedule, error) {
	sc := &solveScratch{seed: plan.times}
	if len(plan.Dropped) > 0 {
		sc.masked = g.maskArcs(plan.Dropped)
	}
	s, err := g.solve(sc, g.list(), opts)
	if err == nil {
		s.Dropped = append(plan.Dropped[:len(plan.Dropped):len(plan.Dropped)], s.Dropped...)
	}
	return s, err
}

// solve runs the relax loop over cons on sc and wraps the result.
func (g *Graph) solve(sc *solveScratch, cons conList, opts SolveOptions) (*Schedule, error) {
	dist, dropped, cycle := sc.solve(len(g.events), 0, cons, opts.Relax)
	if cycle != nil {
		return nil, &ConflictError{Cycle: cycle}
	}
	return g.schedule(dist, dropped), nil
}

// schedule wraps extraction's labels as g's schedule.
func (g *Graph) schedule(dist []int64, dropped []ArcRef) *Schedule {
	times := make([]time.Duration, len(dist))
	for v := range times {
		times[v] = timeOf(dist[v])
	}
	return &Schedule{graph: g, times: times, Dropped: dropped}
}

// SolveParallel forwards to Solve. It survives only because the frozen
// benchmark harness calls it (bench/mark/view.go); the next benchmark PR
// drops it.
func (g *Graph) SolveParallel(opts SolveOptions) (*Schedule, error) { return g.Solve(opts) }

// solve is the scheduler's one relax loop (section 5.3). A feasibility
// sweep over all of cons comes first; when it finds no negative cycle
// nothing is dropped. Otherwise, with relax, the loop sweeps the system
// without its May arcs and then admits the May arcs one at a time in list
// order (document order, then arc index), all constraints of one arc
// together: an arc is dropped only if it cannot hold together with the
// non-May constraints and the May arcs kept before it (relaxation by
// insertion; Ramalingam et al., Algorithmica 1999). Victims depend on the
// constraint list alone, never on labels or queue order, so sc.seed (a
// warm start) only speeds up the sweeps, and a conflict is always reported
// from a cold one. Finally the earliest schedule with t[src] = 0
// is extracted over the kept constraints. cons is read, never modified. It
// returns the shortest-path labels, aliasing the arena — convert with
// timeOf before the next call — and the dropped arcs in list order, or the
// constraints of a cycle that relaxation could not (or may not) break.
// sc.dist is left holding the sweep's labels, feasible for every kept
// constraint: a Solver's next pass starts from them (resweep).
func (sc *solveScratch) solve(n int, src EventID, cons conList, relax bool) (dist []int64, dropped []ArcRef, conflict []Constraint) {
	sc.active = sc.active[:0]
	for _, out := range sc.masked {
		sc.active = append(sc.active, !out)
	}
	sc.grow(n)
	sc.buildCSR(n, cons, false)
	cycleIdx := sc.findNegativeCycle(n, cons)
	if cycleIdx != nil && relax {
		sc.active = sc.active[:0]
		for i := range cons.len() {
			sc.active = append(sc.active, !isMay(cons.at(i)) && !sc.isMasked(i))
		}
		if cycleIdx = sc.findNegativeCycle(n, cons); cycleIdx == nil {
			dropped = sc.admitMay(cons)
		}
	}
	if cycleIdx != nil {
		if sc.seed != nil {
			// Which cycle a sweep meets first depends on its labels.
			sc.seed = nil
			cycleIdx = sc.findNegativeCycle(n, cons)
		}
		conflict = make([]Constraint, len(cycleIdx))
		for i, ci := range cycleIdx {
			conflict[i] = *cons.at(int(ci))
		}
		return nil, nil, conflict
	}

	// Earliest schedule with t[src] = 0: for difference constraints
	// t_v − t_u ≤ w (edge u→v weight w), the earliest solution is
	// t_v = −dist(v → src), i.e. single-source shortest paths from src on
	// the reversed graph.
	sc.buildCSR(n, cons, true)
	return sc.earliest(&sc.adj, n, src), dropped, nil
}

// resweep restores feasible labels after a patch, starting from the labels
// the last sweep left in sc.dist. Those satisfy every constraint laid out
// in fwd except the ones in fresh, the blocks the patch added or changed;
// so only the tails of fresh constraints they violate are queued, and the
// sweep relaxes from there. Events added since start from whatever label
// their slot holds: every constraint that reaches them is fresh. Without a
// cycle, the earliest schedule is extracted over rev, exactly as a cold
// solve extracts it: feasible labels are all Dijkstra needs, and the
// earliest schedule of a feasible system is unique. resweep returns nil at
// a cycle — which cycle a sweep meets depends on its labels, so the
// caller solves cold and reports from there. With every constraint in
// force the sweep reads no constraint index: the edges fwd and rev carry
// need not match any list.
func (sc *solveScratch) resweep(fwd, rev *adjacency, n int, fresh [][]Constraint) []int64 {
	sc.grow(n)
	sc.active = sc.active[:0]
	dist := sc.dist
	for v := 0; v < n; v++ {
		sc.parent[v], sc.pathlen[v] = -1, 0
	}
	for _, block := range fresh {
		for i := range block {
			if c := &block[i]; dist[c.U]+int64(c.W) < dist[c.V] {
				sc.q.push(int32(c.U), dist)
			}
		}
	}
	if sc.sweep(fwd, n) >= 0 {
		return nil
	}
	return sc.earliest(rev, n, 0)
}

func isMay(c *Constraint) bool { return c.Kind == KindArc && c.Arc.Arc.Strict == core.May }

// isMasked reports whether constraint i is out of this solve altogether.
func (sc *solveScratch) isMasked(i int) bool { return sc.masked != nil && sc.masked[i] }

// admitMay activates cons' May arcs in list order over the labels of a
// feasible sweep of the rest, and returns the arcs it had to reject. An
// arc's constraints are adjacent in the list and stand or fall together.
// Masked arcs are never admitted.
func (sc *solveScratch) admitMay(cons conList) (dropped []ArcRef) {
	for i := 0; i < cons.len(); {
		if !isMay(cons.at(i)) || sc.isMasked(i) {
			i++
			continue
		}
		arc := keyOf(*cons.at(i).Arc)
		j := i + 1
		for j < cons.len() && cons.at(j).Kind == KindArc && keyOf(*cons.at(j).Arc) == arc {
			j++
		}
		sc.undo = sc.undo[:0]
		for k := i; k < j; k++ {
			sc.active[k] = true
			if !sc.insert(cons, k) {
				for k := i; k < j; k++ {
					sc.active[k] = false
				}
				for u := len(sc.undo) - 1; u >= 0; u-- {
					sc.dist[sc.undo[u].v] = sc.undo[u].d
				}
				dropped = append(dropped, *cons.at(i).Arc)
				break
			}
		}
		i = j
	}
	return dropped
}

// insert restores feasible labels after cons[k] was activated, logging
// every label it lowers in sc.undo. If the labels already satisfy the
// constraint that costs nothing; otherwise the change is propagated
// forward from its tail over active constraints. The labels were feasible
// before, so any negative cycle runs through cons[k], and propagation
// finds one exactly when it would lower the constraint's tail: insert then
// reports false and leaves the restore to the caller.
func (sc *solveScratch) insert(cons conList, k int) bool {
	c, dist, q := cons.at(k), sc.dist, &sc.q
	if dist[c.U]+int64(c.W) >= dist[c.V] {
		return true
	}
	q.push(int32(c.U), dist)
	for q.count > 0 {
		u := q.pop()
		for e := sc.adj.off[u]; e < sc.adj.end[u]; e++ {
			d := &sc.adj.edge[e]
			if nd := dist[u] + d.w; nd < dist[d.to] && sc.active[d.ci] {
				if EventID(d.to) == c.U {
					for q.count > 0 {
						q.pop()
					}
					return false
				}
				sc.undo = append(sc.undo, labelUndo{EventID(d.to), dist[d.to]})
				dist[d.to] = nd
				q.push(d.to, dist)
			}
		}
	}
	return true
}

// timeOf converts a shortest-path label into an event time. An event with
// no path to the source is unconstrained from below and is scheduled at
// the source (time zero).
func timeOf(dist int64) time.Duration {
	if dist == unreachable {
		return 0
	}
	return -time.Duration(dist)
}

const unreachable = int64(math.MaxInt64)

// conList is a solve's constraint list in two runs, head then tail, so a
// play can list its runtime constraints after its plan's without copying
// either: constraint i is head[i], or tail[i-len(head)].
type conList struct{ head, tail []Constraint }

func (l conList) len() int { return len(l.head) + len(l.tail) }

func (l conList) at(i int) *Constraint {
	if i < len(l.head) {
		return &l.head[i]
	}
	return &l.tail[i-len(l.head)]
}

// solveScratch is the relax loop's arena: CSR adjacency, the sweeps' queue
// and labels, extraction's keys and heap, the active flags and the label
// undo log. Graph.Solve makes one per call; a Solver owns one for life, so
// its re-solves of the patched graph allocate almost nothing beyond the
// schedule. The zero value is ready to use.
type solveScratch struct {
	adj adjacency // buildCSR's
	pos []int32   // CSR fill cursor, len n

	dist    []int64
	parent  []int32
	pathlen []int32
	q       ring
	// Extraction's: each event's key and heap slot (or marker), the indexed
	// min-heap, and one wave's settled events and other relaxations.
	key                      []int64
	at, heap, stack, pending []int32
	// seed gives the feasibility sweeps their starting labels instead of
	// zero, for the events it covers (Graph.SolveFrom, Solver's re-solves).
	seed []time.Duration
	// active, when set, flags the constraints in force (one per
	// constraint); the sweeps and the reversed CSR skip the rest. Unset,
	// every constraint is in force.
	active []bool
	// masked, when set, flags the constraints out of the solve altogether
	// — a plan's dropped arcs (Graph.SolveFrom): never in force, never
	// admitted.
	masked []bool
	// undo logs the labels an admission lowered, oldest first.
	undo []labelUndo
}

// labelUndo records vertex v's label before an admission lowered it.
type labelUndo struct {
	v EventID
	d int64
}

// ring is the label-correcting worklist: a deque over a power-of-two
// number of slots, at least n. The in-queue guard bounds live entries to
// n, so the hot loops never grow a slice. push follows the
// smaller-label-first heuristic: a vertex whose label undercuts the
// front's jumps the line, which drastically cuts re-relaxations on
// arc-dense documents.
type ring struct {
	slot        []int32
	in          []bool
	head, count int // head may wrap below zero; slots are indexed & mask
	mask        int
}

// push queues v unless it is queued already.
func (r *ring) push(v int32, dist []int64) {
	if r.in[v] {
		return
	}
	r.in[v] = true
	if r.count > 0 && dist[v] <= dist[r.slot[r.head&r.mask]] {
		r.head--
		r.slot[r.head&r.mask] = v
	} else {
		r.slot[(r.head+r.count)&r.mask] = v
	}
	r.count++
}

func (r *ring) pop() int32 {
	v := r.slot[r.head&r.mask]
	r.head++
	r.count--
	r.in[v] = false
	return v
}

// grow sizes every per-event scratch array for n events. It keeps the
// labels in sc.dist: a Solver's next sweep starts from them, events added
// since included. Growth leaves slack for the events later inserts add.
func (sc *solveScratch) grow(n int) {
	if c := cap(sc.dist); c < n {
		if c > 0 {
			c = n + n/2
		} else {
			c = n
		}
		sc.dist = append(make([]int64, 0, c), sc.dist...)
		sc.pos = make([]int32, c)
		sc.parent = make([]int32, c)
		sc.pathlen = make([]int32, c)
		sc.q.in = make([]bool, c)
		sc.key = make([]int64, c)
		sc.at = make([]int32, c)
		sc.stack = make([]int32, 0, c)
		sc.pending = make([]int32, 0, c)
	}
	sc.dist = sc.dist[:n]
	sc.pos = sc.pos[:n]
	sc.parent = sc.parent[:n]
	sc.pathlen = sc.pathlen[:n]
	size := 1
	for size < n {
		size <<= 1
	}
	if cap(sc.q.slot) < size {
		sc.q.slot = make([]int32, size)
	}
	sc.q = ring{slot: sc.q.slot[:size], in: sc.q.in[:n], mask: size - 1}
}

// buildCSR lays the constraints in force out as sc.adj: keyed by U (the
// forward graph used for feasibility), or with reverse set by V (the
// reversed graph used for earliest extraction).
func (sc *solveScratch) buildCSR(n int, cons conList, reverse bool) {
	sc.adj = layOut(sc.adj, sc.pos, n, cons, sc.active, reverse)
}

// adjacency is a constraint system laid out by event: the edges leaving
// event u are edge[off[u]:end[u]]. Laid out by layOut, the rows are packed
// in event order and end is off shifted by one.
type adjacency struct {
	off, end []int32
	edge     []csrEdge
}

// layOut lays the constraints of cons in force — all of them when active
// is empty — out as packed rows, reusing a's storage and count (len n) as
// the fill cursor.
func layOut(a adjacency, count []int32, n int, cons conList, active []bool, reverse bool) adjacency {
	ends := func(c *Constraint) (from, to int32) {
		if reverse {
			return int32(c.V), int32(c.U)
		}
		return int32(c.U), int32(c.V)
	}
	inForce := func(i int) bool { return len(active) == 0 || active[i] }
	if cap(a.off) < n+1 {
		a.off = make([]int32, n+1)
	}
	off := a.off[:n+1]
	for i := range off {
		off[i] = 0
	}
	for i := range cons.len() {
		if inForce(i) {
			from, _ := ends(cons.at(i))
			off[from+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
		count[u] = off[u]
	}
	edge := a.edge
	if m := int(off[n]); cap(edge) < m {
		edge = make([]csrEdge, m)
	}
	edge = edge[:off[n]]
	for i := range cons.len() {
		if inForce(i) {
			c := cons.at(i)
			from, to := ends(c)
			edge[count[from]] = csrEdge{ci: int32(i), to: to, w: int64(c.W)}
			count[from]++
		}
	}
	return adjacency{off: off, end: off[1:], edge: edge}
}

// keptRows is an adjacency a Solver keeps for the life of its graph and
// edits in place: row u may grow into edge[end[u]:lim[u]]. A full row
// moves to the arena's end with room to double, so no edit moves another
// row, and what moved rows leave behind is bounded by their own sizes. A
// rebuild lays the graph out afresh.
type keptRows struct {
	adjacency
	lim []int32
}

// keep makes a packed layout editable.
func keep(a adjacency) keptRows {
	n := len(a.end)
	end := append([]int32(nil), a.end...)
	return keptRows{
		adjacency: adjacency{off: a.off[:n:n], end: end, edge: a.edge},
		lim:       append([]int32(nil), end...),
	}
}

// addRows appends k empty rows, for events inserted after the layout.
func (r *keptRows) addRows(k int) {
	for ; k > 0; k-- {
		at := int32(len(r.edge))
		r.off, r.end, r.lim = append(r.off, at), append(r.end, at), append(r.lim, at)
	}
}

// remove takes one edge from → to of weight w out of its row. Parallel
// edges of one weight are interchangeable, so any match will do.
func (r *keptRows) remove(from, to EventID, w time.Duration) {
	last := r.end[from] - 1
	for e := r.off[from]; e <= last; e++ {
		if d := &r.edge[e]; d.to == int32(to) && d.w == int64(w) {
			*d = r.edge[last]
			r.end[from] = last
			return
		}
	}
}

// add appends an edge from → to of weight w to its row.
func (r *keptRows) add(from, to EventID, w time.Duration) {
	if r.end[from] == r.lim[from] {
		off, n := r.off[from], r.end[from]-r.off[from]
		at := int32(len(r.edge))
		r.edge = append(r.edge, r.edge[off:off+n]...)
		r.edge = slices.Grow(r.edge, int(n)+2)[:int(at+2*n+2)]
		r.off[from], r.end[from], r.lim[from] = at, at+n, at+2*n+2
	}
	r.edge[r.end[from]] = csrEdge{ci: -1, to: int32(to), w: int64(w)}
	r.end[from]++
}

// csrEdge is one constraint laid out as adjacency: its index in the list,
// the vertex it leads to and its weight, so the sweeps read the edge
// array alone and never the constraint records. An edge a Solver adds to
// its kept rows has no index (−1); only cold sweeps read it.
type csrEdge struct {
	ci, to int32
	w      int64
}

// earliest computes single-source shortest paths from src over rev, the
// reversed graph (buildCSR(reverse=true), or a Solver's kept rows),
// settling each event once: sc.dist holds labels p feasible for exactly
// the constraints laid out (p[V] ≤ p[U] + W), so a reversed edge V→U has
// reduced weight W − p[V] + p[U] ≥ 0 and Dijkstra keyed by dist + p
// (sc.key) is exact. An event reached over a tight edge — at the current
// minimum key — is final at once and goes on a stack, not the heap; the
// other events a wave reaches first enter the heap once it is over. The
// result aliases sc.key; the labels stay in sc.dist.
func (sc *solveScratch) earliest(rev *adjacency, n int, src EventID) []int64 {
	p, key, at := sc.dist, sc.key, sc.at
	off, end, edge := rev.off, rev.end, rev.edge
	for v := 0; v < n; v++ {
		key[v], at[v] = unreachable, unqueued
	}
	key[src], at[src] = p[src], settled
	stack := append(sc.stack[:0], int32(src))
	for {
		k, pending := key[stack[0]], sc.pending[:0]
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ku := k - p[u]
			for e := off[u]; e < end[u]; e++ {
				// A reversed edge: V→U with weight W.
				d := &edge[e]
				nk := ku + d.w + p[d.to]
				old := key[d.to]
				if nk >= old {
					continue
				}
				key[d.to] = nk
				switch {
				case at[d.to] >= 0:
					sc.siftUp(int(at[d.to]))
				case nk == k:
					at[d.to] = settled
					stack = append(stack, d.to)
				case old == unreachable:
					pending = append(pending, d.to)
				}
			}
		}
		for _, v := range pending {
			if at[v] == unqueued {
				at[v] = int32(len(sc.heap))
				sc.heap = append(sc.heap, v)
				sc.siftUp(int(at[v]))
			}
		}
		sc.pending = pending
		if len(sc.heap) == 0 {
			break
		}
		stack = append(stack, sc.popMin())
	}
	sc.stack = stack
	for v := 0; v < n; v++ {
		if key[v] != unreachable {
			key[v] -= p[v]
		}
	}
	return key[:n]
}

// at's markers for an event off the heap: never queued, or settled.
const unqueued, settled = -1, -2

// popMin removes and settles the heap's minimum-key event, then sifts the
// last event down from the root.
func (sc *solveScratch) popMin() int32 {
	h, key, at := sc.heap[:len(sc.heap)-1], sc.key, sc.at
	top, v, i := sc.heap[0], sc.heap[len(h)], 0
	sc.heap, at[top] = h, settled
	for c := 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && key[h[c+1]] < key[h[c]] {
			c++
		}
		if key[v] <= key[h[c]] {
			break
		}
		h[i], at[h[c]] = h[c], int32(i)
		i = c
	}
	if len(h) > 0 {
		h[i], at[v] = v, int32(i)
	}
	return top
}

// siftUp restores the heap order above slot i, keeping at in step.
func (sc *solveScratch) siftUp(i int) {
	h, key, v := sc.heap, sc.key, sc.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if key[h[parent]] <= key[v] {
			break
		}
		h[i], sc.at[h[parent]] = h[parent], int32(i)
		i = parent
	}
	h[i], sc.at[v] = v, int32(i)
}

// findNegativeCycle runs a queue-based Bellman–Ford with a virtual source
// (every vertex starts at distance 0, or at its seed label — any starting
// labels are sound) over the constraints in force, on the forward graph
// laid out by buildCSR(reverse=false), and returns the indices (into cons)
// of the constraints on a negative cycle, or nil when they are feasible;
// sc.dist then holds feasible labels. The cycle is extracted through the
// parent pointers.
func (sc *solveScratch) findNegativeCycle(n int, cons conList) []int32 {
	dist := sc.dist
	parent := sc.parent
	pathlen := sc.pathlen
	q := &sc.q
	for i := 0; i < n; i++ {
		dist[i] = 0
		if i < len(sc.seed) {
			dist[i] = int64(sc.seed[i])
		}
		parent[i] = -1
		pathlen[i] = 0
	}
	// Seed the queue in descending id order: lower bounds propagate from
	// end events to begin events and from successors to predecessors —
	// both toward lower ids — so a descending first pass settles the long
	// seq chains in one sweep instead of one epoch per link.
	for i := 0; i < n; i++ {
		q.slot[i], q.in[i] = int32(n-1-i), true
	}
	q.head, q.count = 0, n
	cycleAt := sc.sweep(&sc.adj, n)
	if cycleAt < 0 {
		return nil
	}
	// Walk parents n times to be sure we are on the cycle, then collect.
	v := EventID(cycleAt)
	for i := 0; i < n; i++ {
		v = cons.at(int(parent[v])).U
	}
	var cycle []int32
	start := v
	for {
		ci := parent[v]
		cycle = append(cycle, ci)
		v = cons.at(int(ci)).U
		if v == start {
			break
		}
	}
	// Reverse so the cycle reads in constraint direction.
	for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	return cycle
}

// sweep is the label-correcting loop: it relaxes the edges of fwd in force
// (sc.active) from the queued events until no label drops. It returns -1
// when the labels are then feasible, or the event whose improving path
// reached n edges. Such a path repeats an event, and each relaxation
// along it lowered a label, so the repeat closes a negative cycle —
// whatever labels the sweep started from.
func (sc *solveScratch) sweep(fwd *adjacency, n int) int32 {
	active, dist, parent, pathlen, q := sc.active, sc.dist, sc.parent, sc.pathlen, &sc.q
	off, end, edge := fwd.off, fwd.end, fwd.edge
	var cycleAt int32 = -1
	for q.count > 0 && cycleAt < 0 {
		u := q.pop()
		du := dist[u]
		for e := off[u]; e < end[u]; e++ {
			d := &edge[e]
			if len(active) > 0 && !active[d.ci] {
				continue
			}
			if nd := du + d.w; nd < dist[d.to] {
				dist[d.to] = nd
				parent[d.to] = d.ci
				pathlen[d.to] = pathlen[u] + 1
				if int(pathlen[d.to]) >= n {
					cycleAt = d.to
					break
				}
				q.push(d.to, dist)
			}
		}
	}
	for q.count > 0 {
		q.pop()
	}
	return cycleAt
}

// Verify checks a time assignment against every non-dropped constraint,
// returning the violated ones. Tests use it to audit schedules and traces.
func (g *Graph) Verify(times []time.Duration, dropped []ArcRef) []Constraint {
	cons, mask := g.list(), g.maskArcs(dropped)
	var violated []Constraint
	for i := range cons.len() {
		if c := cons.at(i); !mask[i] && times[c.V]-times[c.U] > c.W {
			violated = append(violated, *c)
		}
	}
	return violated
}

// String renders the constraint count summary.
func (g *Graph) String() string {
	var structural, duration, arcs int
	cons := g.list()
	for i := range cons.len() {
		switch cons.at(i).Kind {
		case KindStructural:
			structural++
		case KindDuration:
			duration++
		case KindArc:
			arcs++
		}
	}
	return fmt.Sprintf("sched.Graph{%d events, %d structural, %d duration, %d arc constraints}",
		len(g.events), structural, duration, arcs)
}
