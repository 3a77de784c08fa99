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
// constraint system, laid out on an arena made for this call. It only
// reads the graph, so concurrent solves of one graph stay independent.
// Solver runs the same loop over the layout it keeps of its graph, and
// produces identical schedules.
func (g *Graph) Solve(opts SolveOptions) (*Schedule, error) {
	return g.solve(&solveScratch{}, g.list(), opts)
}

// SolveFrom re-solves plan's graph g as a perturbation of plan: with the
// runtime bounds (RuntimeLower) in force beside g's own constraints, and
// without the arcs in drop or those plan dropped. plan's times seed the
// feasibility sweep as labels: they already satisfy every constraint plan
// was solved under, so only the new ones relax anything. The schedule is
// exactly what Solve returns for g with bounds added and those arcs
// removed (the seed buys speed, never a different answer); its Dropped is
// plan's list followed by the victims opts.Relax allowed on top, and
// names no arc of drop.
//
// The solve runs over g's list followed by bounds, neither copied, and
// takes the dropped arcs out of force rather than out of the list. Like
// Solve, it only reads g.
func (g *Graph) SolveFrom(plan *Schedule, bounds []Constraint, drop []ArcRef, opts SolveOptions) (*Schedule, error) {
	sc := &solveScratch{seed: plan.times}
	if len(plan.Dropped)+len(drop) > 0 {
		sc.on = g.inForce(len(bounds), plan.Dropped, drop)
	}
	cons := g.list()
	cons.tail = bounds
	s, err := g.solve(sc, cons, opts)
	if err == nil {
		s.Dropped = append(plan.Dropped[:len(plan.Dropped):len(plan.Dropped)], s.Dropped...)
	}
	return s, err
}

// solve runs the relax loop over cons, g's list, on sc and wraps the
// result.
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

// solve is the cold solve: settle over cons laid out forward, then the
// earliest schedule with t[src] = 0 over cons laid out reversed. For
// difference constraints t_v − t_u ≤ w (edge u→v weight w), the earliest
// solution is t_v = −dist(v → src), i.e. single-source shortest paths from
// src on the reversed graph. cons is read, never modified. It returns the
// shortest-path labels, aliasing the arena — convert with timeOf before
// the next call — and the dropped arcs in list order, or the constraints of
// a cycle that relaxation could not (or may not) break.
func (sc *solveScratch) solve(n int, src EventID, cons conList, relax bool) (dist []int64, dropped []ArcRef, conflict []Constraint) {
	sc.grow(n)
	sc.adj = layOut(sc.adj, sc.pos, n, cons, nil, false)
	dropped, at := sc.settle(&sc.adj, n, cons, relax)
	if at >= 0 {
		return nil, nil, sc.conflict(&sc.adj, n, cons, at)
	}
	sc.adj = layOut(sc.adj, sc.pos, n, cons, nil, true)
	return sc.earliest(&sc.adj, n, src), dropped, nil
}

// settle is the scheduler's one relax loop (section 5.3) over fwd, which
// lays out cons. A feasibility sweep over every constraint in force comes
// first; when it finds no negative cycle nothing is dropped. Otherwise,
// with relax, the loop takes the May arcs in force out of force, sweeps
// the rest, and then admits those arcs one at a time in list order
// (document order, then arc index), all constraints of one arc together:
// an arc is dropped only if it cannot hold together with the non-May
// constraints and the May arcs kept before it (relaxation by insertion;
// Ramalingam et al., Algorithmica 1999). Victims depend on the constraint
// list alone, never on labels, queue or edge order, so sc.seed (a warm
// start) only speeds up the sweeps and fwd may order its rows' edges any
// way. It returns the dropped arcs in list order and -1, or where its last
// sweep met a cycle. sc.dist is left holding feasible labels for every
// constraint in force: a Solver's next pass starts from them (resweep).
func (sc *solveScratch) settle(fwd *adjacency, n int, cons conList, relax bool) (dropped []ArcRef, at int32) {
	if at = sc.sweepAll(fwd, n); at < 0 || !relax {
		return nil, at
	}
	if len(sc.on) == 0 {
		m := len(cons.head) + len(cons.tail)
		sc.on = slices.Grow(sc.on, m)[:m]
		for i := range sc.on {
			sc.on[i] = true
		}
	}
	sc.may = sc.may[:0]
	for ci, c := range cons.all {
		if sc.on[ci] && isMay(c) {
			sc.on[ci] = false
			sc.may = append(sc.may, ci)
		}
	}
	if at = sc.sweepAll(fwd, n); at < 0 {
		dropped = sc.admitMay(fwd, cons)
	}
	return dropped, at
}

// conflict returns the constraints of the cycle a cold sweep over fwd
// meets with the constraints in force as they stand. Which cycle a sweep
// meets depends on its starting labels and on edge order, so fwd must lay
// cons out in list order, and the report then equals a cold Build and
// Solve's. at is where the last sweep over fwd met one, or -1.
func (sc *solveScratch) conflict(fwd *adjacency, n int, cons conList, at int32) []Constraint {
	if at < 0 || sc.seed != nil {
		sc.seed = nil
		at = sc.sweepAll(fwd, n)
	}
	// Walk parents n times to be sure we are on the cycle, then collect.
	v := EventID(at)
	for i := 0; i < n; i++ {
		v = cons.at(sc.parent[v]).U
	}
	var cycle []Constraint
	for start := v; ; {
		c := cons.at(sc.parent[v])
		cycle = append(cycle, *c)
		if v = c.U; v == start {
			break
		}
	}
	// Reverse so the cycle reads in constraint direction.
	slices.Reverse(cycle)
	return cycle
}

// resweep restores feasible labels after a patch, starting from the labels
// the last sweep left in sc.dist. Those satisfy every constraint laid out
// in fwd except the ones in fresh, the blocks the patch added or changed;
// so only the tails of fresh constraints they violate are queued, and the
// sweep relaxes from there. Events added since start from whatever label
// their slot holds: every constraint that reaches them is fresh. Every
// constraint is in force. Without a cycle, the earliest schedule is
// extracted over rev, exactly as a cold solve extracts it: feasible labels
// are all Dijkstra needs, and the earliest schedule of a feasible system
// is unique. resweep returns nil at a cycle — which cycle a sweep meets
// depends on its labels, so the caller solves cold and reports from there.
// sc must be sized for n events.
func (sc *solveScratch) resweep(fwd, rev *adjacency, n int, fresh [][]Constraint) []int64 {
	sc.on = sc.on[:0]
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

// admitMay puts the May arcs settle took out of force (sc.may) back in
// list order over the labels of a feasible sweep of the rest, and returns
// the arcs it had to reject. An arc's constraints are adjacent in the list
// and stand or fall together.
func (sc *solveScratch) admitMay(fwd *adjacency, cons conList) (dropped []ArcRef) {
	may := sc.may
	for i := 0; i < len(may); {
		arc := cons.at(may[i]).Arc
		j := i + 1
		for j < len(may) && keyOf(*cons.at(may[j]).Arc) == keyOf(*arc) {
			j++
		}
		sc.undo = sc.undo[:0]
		for _, ci := range may[i:j] {
			sc.on[ci] = true
			if !sc.insert(fwd, cons.at(ci)) {
				for _, ci := range may[i:j] {
					sc.on[ci] = false
				}
				for u := len(sc.undo) - 1; u >= 0; u-- {
					sc.dist[sc.undo[u].v] = sc.undo[u].d
				}
				dropped = append(dropped, *arc)
				break
			}
		}
		i = j
	}
	return dropped
}

// insert restores feasible labels after c was put in force, logging every
// label it lowers in sc.undo. If the labels already satisfy c that costs
// nothing; otherwise the change is propagated forward from its tail over
// the edges of fwd in force. The labels were feasible before, so any
// negative cycle runs through c, and propagation finds one exactly when it
// would lower c's tail: insert then reports false and leaves the restore
// to the caller.
func (sc *solveScratch) insert(fwd *adjacency, c *Constraint) bool {
	dist, q, on := sc.dist, &sc.q, sc.on
	off, end, edge := fwd.off, fwd.end, fwd.edge
	if dist[c.U]+int64(c.W) >= dist[c.V] {
		return true
	}
	q.push(int32(c.U), dist)
	for q.count > 0 {
		u := q.pop()
		for e := off[u]; e < end[u]; e++ {
			d := &edge[e]
			if nd := dist[u] + d.w; nd < dist[d.to] && on[d.ci] {
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

// conList is a solve's constraint list: the pool head, then tail, so a
// play can list its runtime bounds after its graph's constraints without
// copying either. A constraint's reference is its index in head, or
// len(head) plus its index in tail. Without order, head is the list as it
// stands; with it, the list reads the blocks of each node order names, in
// turn (Graph.list).
type conList struct {
	head, tail []Constraint
	order      []int32
	blocks     [][2]span
}

func (l conList) at(ci int32) *Constraint {
	if int(ci) < len(l.head) {
		return &l.head[ci]
	}
	return &l.tail[int(ci)-len(l.head)]
}

// runs yields the list in order as runs of adjacent constraints, each
// with the reference of its first.
func (l conList) runs(yield func(ci int32, run []Constraint) bool) {
	if l.order == nil && !yield(0, l.head) {
		return
	}
	for _, k := range l.order {
		for _, b := range l.blocks[k] {
			if !yield(b.at, l.head[b.at:b.end]) {
				return
			}
		}
	}
	yield(int32(len(l.head)), l.tail)
}

// all yields the list's constraints in order, each with its reference.
func (l conList) all(yield func(ci int32, c *Constraint) bool) {
	for at, run := range l.runs {
		for i := range run {
			if !yield(at+int32(i), &run[i]) {
				return
			}
		}
	}
}

// solveScratch is the relax loop's arena: the cold layout, the sweeps'
// queue and labels, extraction's keys and heap, the in-force flags and the
// label undo log. Graph.Solve makes one per call; a Solver owns one for
// life, so its re-solves of the patched graph allocate almost nothing
// beyond the schedule. The zero value is ready to use.
type solveScratch struct {
	adj adjacency // the cold layout, forward then reversed
	pos []int32   // layOut's fill cursor, len n

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
	// on flags the constraints in force by reference: a constraint is in
	// force exactly when its flag is set, and an empty set stands for all
	// set. Graph.SolveFrom clears the flags of a plan's dropped arcs and
	// of the arcs it is told to drop before the solve, so they are never
	// in force and never admitted.
	on []bool
	// may lists the May constraints settle took out of force, in list
	// order: admission's candidates.
	may []int32
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

// adjacency is a constraint system laid out by event: the edges leaving
// event u are edge[off[u]:end[u]]. A packed layout's rows follow each
// other in event order, and its end is off shifted by one. Kept rows (a
// Solver's) each have an end of their own and a limit: row u may grow
// into edge[end[u]:lim[u]]. A full row moves to the arena's end with room
// to double, so no edit moves another row, and what moved rows leave
// behind is bounded by their own sizes.
type adjacency struct {
	off, end, lim []int32
	edge          []csrEdge
}

// csrEdge is one constraint laid out as an edge: its reference in the
// list the rows lay out (conList), which stays valid across a Solver's
// patches, the vertex it leads to and its weight, so the sweeps read the
// edge array alone and never the constraint records.
type csrEdge struct {
	ci, to int32
	w      int64
}

// layOut lays every constraint of cons out as rows in list order, keyed
// by U (the forward graph the sweeps relax), or with reverse by V (the
// reversed graph extraction reads). It reuses a's storage and count (len
// n) as the fill cursor. Without lim the rows are packed. With lim (len n)
// they are kept: count becomes their ends and lim their limits.
func layOut(a adjacency, count []int32, n int, cons conList, lim []int32, reverse bool) adjacency {
	if cap(a.off) < n+1 {
		a.off = make([]int32, n+1)
	}
	off := a.off[:n+1]
	for i := range off {
		off[i] = 0
	}
	for _, run := range cons.runs {
		for i := range run {
			from, _ := run[i].ends(reverse)
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
	for at, run := range cons.runs {
		for i := range run {
			from, to := run[i].ends(reverse)
			edge[count[from]] = csrEdge{ci: at + int32(i), to: int32(to), w: int64(run[i].W)}
			count[from]++
		}
	}
	if lim == nil {
		return adjacency{off: off[:n], end: off[1:], edge: edge}
	}
	copy(lim, count)
	return adjacency{off: off[:n], end: count, lim: lim, edge: edge}
}

// ends returns c's edge as from → to, or reversed.
func (c *Constraint) ends(reverse bool) (from, to EventID) {
	if reverse {
		return c.V, c.U
	}
	return c.U, c.V
}

// addNode appends two empty rows to kept rows, for the events of a node
// inserted after the layout.
func (a *adjacency) addNode() {
	at := int32(len(a.edge))
	a.off, a.end, a.lim = append(a.off, at, at), append(a.end, at, at), append(a.lim, at, at)
}

// remove takes constraint ci's edge out of kept row from.
func (a *adjacency) remove(from EventID, ci int32) {
	last := a.end[from] - 1
	for e := a.off[from]; e <= last; e++ {
		if a.edge[e].ci == ci {
			a.edge[e] = a.edge[last]
			a.end[from] = last
			return
		}
	}
}

// add appends edge e to kept row from.
func (a *adjacency) add(from EventID, e csrEdge) {
	if a.end[from] == a.lim[from] {
		off, n := a.off[from], a.end[from]-a.off[from]
		at := int32(len(a.edge))
		a.edge = append(a.edge, a.edge[off:off+n]...)
		a.edge = slices.Grow(a.edge, int(n)+2)[:int(at+2*n+2)]
		a.off[from], a.end[from], a.lim[from] = at, at+n, at+2*n+2
	}
	a.edge[a.end[from]] = e
	a.end[from]++
}

// earliest computes single-source shortest paths from src over the edges
// of rev in force, the reversed graph, settling each event once: sc.dist
// holds labels p feasible for exactly the constraints in force
// (p[V] ≤ p[U] + W), so a reversed edge V→U has
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
				if nk >= old || len(sc.on) > 0 && !sc.on[d.ci] {
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

// sweepAll runs a queue-based Bellman–Ford with a virtual source (every
// vertex starts at distance 0, or at its seed label — any starting labels
// are sound) over the edges of fwd in force, and returns -1 when they are
// feasible, sc.dist then holding feasible labels, or the event where it
// met a negative cycle, which the parent pointers close.
func (sc *solveScratch) sweepAll(fwd *adjacency, n int) int32 {
	dist, parent, pathlen, q := sc.dist, sc.parent, sc.pathlen, &sc.q
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
	return sc.sweep(fwd, n)
}

// sweep is the label-correcting loop: it relaxes the edges of fwd in force
// (sc.on) from the queued events until no label drops. It returns -1
// when the labels are then feasible, or the event whose improving path
// reached n edges. Such a path repeats an event, and each relaxation
// along it lowered a label, so the repeat closes a negative cycle —
// whatever labels the sweep started from.
func (sc *solveScratch) sweep(fwd *adjacency, n int) int32 {
	on, dist, parent, pathlen, q := sc.on, sc.dist, sc.parent, sc.pathlen, &sc.q
	off, end, edge := fwd.off, fwd.end, fwd.edge
	var cycleAt int32 = -1
	for q.count > 0 && cycleAt < 0 {
		u := q.pop()
		du := dist[u]
		for e := off[u]; e < end[u]; e++ {
			d := &edge[e]
			if len(on) > 0 && !on[d.ci] {
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

// Verify checks a time assignment against every constraint SolveFrom
// would hold it to — g's own but those of the dropped arcs, then bounds —
// returning the violated ones. Tests use it to audit schedules and traces.
func (g *Graph) Verify(times []time.Duration, bounds []Constraint, dropped []ArcRef) []Constraint {
	on := g.inForce(len(bounds), dropped)
	cons := g.list()
	cons.tail = bounds
	var violated []Constraint
	for ci, c := range cons.all {
		if on[ci] && times[c.V]-times[c.U] > c.W {
			violated = append(violated, *c)
		}
	}
	return violated
}

// String renders the constraint count summary.
func (g *Graph) String() string {
	var structural, duration, arcs int
	for _, c := range g.list().all {
		switch c.Kind {
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
