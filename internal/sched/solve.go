package sched

import (
	"fmt"
	"math"
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
	for _, c := range e.Cycle {
		b.WriteString("\n  ")
		b.WriteString(c.Note)
	}
	return b.String()
}

// MustArcs returns the must-strictness explicit arcs on the conflict cycle.
func (e *ConflictError) MustArcs() []ArcRef {
	var out []ArcRef
	for _, c := range e.Cycle {
		if c.Kind == KindArc && c.Arc.Arc.Strict == core.Must {
			out = append(out, c.Arc)
		}
	}
	return out
}

// SolveOptions configures the solver.
type SolveOptions struct {
	// Relax enables dropping May arcs to resolve conflicts: the first May
	// arc on a conflict cycle is the victim.
	Relax bool
}

// Solve computes the earliest feasible schedule, optionally relaxing May
// arcs. It returns a ConflictError when the constraints cannot be satisfied
// by dropping May arcs alone. It is the full solve over the whole
// constraint system, on an arena made for this call — nothing is cached on
// the graph, so concurrent solves stay independent. Solver is the
// incremental path; it runs the same loop per component and produces
// identical schedules.
func (g *Graph) Solve(opts SolveOptions) (*Schedule, error) {
	return g.solve(g.flatten(), nil, opts)
}

// SolveFrom re-solves g — plan's graph, or a Clone of it carrying runtime
// constraints — as a perturbation of plan. The arcs plan dropped stay
// dropped, and plan's times seed the feasibility sweep as labels: they
// already satisfy every constraint plan was solved under, so only the new
// ones relax anything. The schedule is exactly what Solve returns for g
// without those arcs (the seed buys speed, never a different answer); its
// Dropped is plan's list followed by the victims opts.Relax allowed on top.
func (g *Graph) SolveFrom(plan *Schedule, opts SolveOptions) (*Schedule, error) {
	s, err := g.solve(g.withoutArcs(plan.Dropped), plan.times, opts)
	if err == nil {
		s.Dropped = append(plan.Dropped[:len(plan.Dropped):len(plan.Dropped)], s.Dropped...)
	}
	return s, err
}

// solve runs the relax loop over cons on a fresh arena and wraps the result.
func (g *Graph) solve(cons []Constraint, seed []time.Duration, opts SolveOptions) (*Schedule, error) {
	n := len(g.events)
	dist, dropped, cycle := (&solveScratch{seed: seed}).solve(n, 0, cons, nil, opts.Relax)
	if cycle != nil {
		return nil, &ConflictError{Cycle: cycle}
	}
	times := make([]time.Duration, n)
	for v := range times {
		times[v] = timeOf(dist[v])
	}
	return &Schedule{graph: g, times: times, Dropped: dropped}, nil
}

// SolveParallel forwards to Solve. It survives only because the frozen
// benchmark harness calls it (bench/mark/view.go); the next benchmark PR
// drops it.
func (g *Graph) SolveParallel(opts SolveOptions) (*Schedule, error) { return g.Solve(opts) }

// solve is the scheduler's one relax loop (section 5.3): detect a negative
// cycle among the n vertices' constraints, drop the first May arc on it,
// repeat until the system is feasible, then extract the earliest schedule
// with t[src] = 0. cons is read, never modified: once an arc is dropped the
// live constraints are filtered into the arena's own buffer. order
// optionally sets the feasibility sweep's queue order and sc.seed its first
// labels (warm starts). It returns the
// shortest-path labels, aliasing the arena — convert with timeOf before the
// next call — and the dropped arcs in victim order, or the constraints of a
// cycle that relaxation could not (or may not) break.
func (sc *solveScratch) solve(n int, src EventID, cons []Constraint, order []EventID, relax bool) (dist []int64, dropped []ArcRef, conflict []Constraint) {
	sc.order = order
	live := cons
	for {
		cycleIdx := findNegativeCycle(n, live, sc)
		if cycleIdx == nil {
			break
		}
		if sc.seed != nil {
			// Which cycle a sweep meets first depends on its labels. A
			// seeded sweep only answers "feasible?"; victims are always
			// picked by the cold one.
			sc.seed = nil
			continue
		}
		victim, ok := ArcRef{}, false
		if relax {
			victim, ok = pickVictim(live, cycleIdx)
		}
		if !ok {
			conflict = make([]Constraint, len(cycleIdx))
			for i, ci := range cycleIdx {
				conflict[i] = live[ci]
			}
			return nil, nil, conflict
		}
		dropped = append(dropped, victim)
		// The victim's own constraint is on the cycle, so every pass
		// shrinks the live list and the loop terminates. After the first
		// drop live is sc.live and the filter runs in place.
		if cap(sc.live) < len(live) {
			sc.live = make([]Constraint, 0, len(live))
		}
		sc.live = sc.live[:0]
		for i := range live {
			if c := &live[i]; c.Kind != KindArc || keyOf(c.Arc) != keyOf(victim) {
				sc.live = append(sc.live, *c)
			}
		}
		live = sc.live
	}

	// Earliest schedule with t[src] = 0: for difference constraints
	// t_v − t_u ≤ w (edge u→v weight w), the earliest solution is
	// t_v = −dist(v → src), i.e. single-source shortest paths from src on
	// the reversed graph.
	sc.buildCSR(n, live, true)
	return sc.spfa(n, live, src), dropped, nil
}

// pickVictim returns the first May arc on the cycle, which lists indices
// into cons. Must arcs are never candidates.
func pickVictim(cons []Constraint, cycle []int32) (ArcRef, bool) {
	for _, ci := range cycle {
		if c := &cons[ci]; c.Kind == KindArc && c.Arc.Arc.Strict == core.May {
			return c.Arc, true
		}
	}
	return ArcRef{}, false
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

// solveScratch is the relax loop's arena: CSR adjacency, SPFA queues and
// labels, and the live-constraint buffer. Graph.Solve makes one per call;
// a Solver owns one for life, so its re-solves allocate almost nothing. The
// zero value is ready to use.
type solveScratch struct {
	off  []int32 // CSR offsets, len n+1
	edge []int32 // constraint indices, len m
	pos  []int32 // CSR fill cursor, len n

	dist    []int64
	parent  []int32
	pathlen []int32
	inQueue []bool
	// queue is a ring: the in-queue guard bounds live entries to n, so n
	// slots suffice and the hot loops never grow a slice.
	queue []int32
	order []EventID // optional SPFA seeding order (warm start)
	// seed, when it covers all n vertices, gives the first feasibility
	// sweep its starting labels instead of zero (Graph.SolveFrom).
	seed []time.Duration
	// seeded marks the vertices a warm start has already queued.
	seeded []bool
	// live holds the constraint list minus the arcs dropped so far.
	live []Constraint
}

// grow sizes every scratch array for n vertices and m constraints.
func (sc *solveScratch) grow(n, m int) {
	if cap(sc.off) < n+1 {
		sc.off = make([]int32, n+1)
		sc.pos = make([]int32, n)
		sc.dist = make([]int64, n)
		sc.parent = make([]int32, n)
		sc.pathlen = make([]int32, n)
		sc.inQueue = make([]bool, n)
		sc.queue = make([]int32, n)
		sc.seeded = make([]bool, n)
	}
	sc.off = sc.off[:n+1]
	sc.pos = sc.pos[:n]
	sc.dist = sc.dist[:n]
	sc.parent = sc.parent[:n]
	sc.pathlen = sc.pathlen[:n]
	sc.inQueue = sc.inQueue[:n]
	sc.queue = sc.queue[:n]
	sc.seeded = sc.seeded[:n]
	if cap(sc.edge) < m {
		sc.edge = make([]int32, m)
	}
	sc.edge = sc.edge[:m]
}

// buildCSR lays the constraints out as compact adjacency. With reverse set,
// edges are keyed by V (the reversed graph used for earliest extraction);
// otherwise by U (the forward graph used for feasibility).
func (sc *solveScratch) buildCSR(n int, cons []Constraint, reverse bool) {
	for i := range sc.off {
		sc.off[i] = 0
	}
	key := func(c *Constraint) int32 {
		if reverse {
			return int32(c.V)
		}
		return int32(c.U)
	}
	for i := range cons {
		sc.off[key(&cons[i])+1]++
	}
	for i := 0; i < n; i++ {
		sc.off[i+1] += sc.off[i]
		sc.pos[i] = sc.off[i]
	}
	for i := range cons {
		k := key(&cons[i])
		sc.edge[sc.pos[k]] = int32(i)
		sc.pos[k]++
	}
}

// spfa computes single-source shortest paths from src over the reversed
// graph laid out by buildCSR(reverse=true). The caller guarantees no
// negative cycles (checked beforehand). The result aliases the scratch.
// The worklist is a ring deque with the smaller-label-first heuristic:
// vertices whose label undercuts the queue front jump the line, which
// drastically cuts re-relaxations on arc-dense documents.
func (sc *solveScratch) spfa(n int, cons []Constraint, src EventID) []int64 {
	dist := sc.dist
	inq := sc.inQueue
	q := sc.queue
	for i := 0; i < n; i++ {
		dist[i] = unreachable
		inq[i] = false
	}
	dist[src] = 0
	head, count := 0, 1
	q[0] = int32(src)
	inq[src] = true
	for count > 0 {
		u := q[head]
		head++
		if head == n {
			head = 0
		}
		count--
		inq[u] = false
		du := dist[u]
		if du == unreachable {
			continue
		}
		for e := sc.off[u]; e < sc.off[u+1]; e++ {
			c := &cons[sc.edge[e]]
			// Reversed edge V→U with weight W.
			if nd := du + int64(c.W); nd < dist[c.U] {
				dist[c.U] = nd
				if !inq[c.U] {
					if count > 0 && nd <= dist[q[head]] {
						head--
						if head < 0 {
							head = n - 1
						}
						q[head] = int32(c.U)
					} else {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						q[tail] = int32(c.U)
					}
					count++
					inq[c.U] = true
				}
			}
		}
	}
	return dist
}

// findNegativeCycle runs a queue-based Bellman–Ford with a virtual source
// (every vertex starts at distance 0, or at its seed label — any starting
// labels are sound) over the forward graph and returns
// the indices (into cons) of the constraints on a negative cycle, or nil
// when the system is feasible. A vertex whose improving path grows to n
// edges must lie on (or hang off) a negative cycle, which is then extracted
// through the parent pointers.
func findNegativeCycle(n int, cons []Constraint, sc *solveScratch) []int32 {
	sc.grow(n, len(cons))
	sc.buildCSR(n, cons, false)
	dist := sc.dist
	parent := sc.parent
	pathlen := sc.pathlen
	inq := sc.inQueue
	for i := 0; i < n; i++ {
		dist[i] = 0
		if len(sc.seed) == n {
			dist[i] = int64(sc.seed[i])
		}
		parent[i] = -1
		pathlen[i] = 0
		inq[i] = true
	}
	q := sc.queue
	// Seed the queue in warm-start order when one is installed, so the
	// first pass sweeps the system in (approximately) scheduled order.
	// Cold solves seed in descending id order: lower bounds propagate from
	// end events to begin events and from successors to predecessors —
	// both toward lower ids — so a descending first pass settles the long
	// seq chains in one sweep instead of one epoch per link.
	if len(sc.order) > 0 {
		seeded := sc.seeded
		for i := range seeded {
			seeded[i] = false
		}
		fill := 0
		for _, v := range sc.order {
			if int(v) < n && !seeded[v] {
				q[fill] = int32(v)
				fill++
				seeded[v] = true
			}
		}
		for i := n - 1; i >= 0; i-- {
			if !seeded[EventID(i)] {
				q[fill] = int32(i)
				fill++
			}
		}
	} else {
		for i := 0; i < n; i++ {
			q[i] = int32(n - 1 - i)
		}
	}
	head, count := 0, n
	var cycleAt int32 = -1
	for count > 0 && cycleAt < 0 {
		u := q[head]
		head++
		if head == n {
			head = 0
		}
		count--
		inq[u] = false
		du := dist[u]
		for e := sc.off[u]; e < sc.off[u+1]; e++ {
			ci := sc.edge[e]
			c := &cons[ci]
			if nd := du + int64(c.W); nd < dist[c.V] {
				dist[c.V] = nd
				parent[c.V] = ci
				pathlen[c.V] = pathlen[u] + 1
				if int(pathlen[c.V]) >= n {
					cycleAt = int32(c.V)
					break
				}
				if !inq[c.V] {
					if count > 0 && nd <= dist[q[head]] {
						head--
						if head < 0 {
							head = n - 1
						}
						q[head] = int32(c.V)
					} else {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						q[tail] = int32(c.V)
					}
					count++
					inq[c.V] = true
				}
			}
		}
	}
	if cycleAt < 0 {
		return nil
	}
	// Walk parents n times to be sure we are on the cycle, then collect.
	v := EventID(cycleAt)
	for i := 0; i < n; i++ {
		v = cons[parent[v]].U
	}
	var cycle []int32
	start := v
	for {
		ci := parent[v]
		cycle = append(cycle, ci)
		v = cons[ci].U
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

// Verify checks a time assignment against every non-dropped constraint,
// returning the violated ones. Used by tests and by the playback simulator
// to audit traces.
func (g *Graph) Verify(times []time.Duration, dropped []ArcRef) []Constraint {
	var violated []Constraint
	for _, c := range g.withoutArcs(dropped) {
		if times[c.V]-times[c.U] > c.W {
			violated = append(violated, c)
		}
	}
	return violated
}

// String renders the constraint count summary.
func (g *Graph) String() string {
	var structural, duration, arcs int
	for _, c := range g.flatten() {
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
