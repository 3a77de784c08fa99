package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/units"
)

// goldenSpecs are the corpus documents internal/player's golden table pins.
var goldenSpecs = []corpus.Spec{
	{Shape: corpus.Archive, Seed: 201, Size: 20},
	{Shape: corpus.DeepNest, Seed: 204, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 205, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 207, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 208, Size: 2, Depth: 6},
	{Shape: corpus.NewsWeb, Seed: 101, Size: 8, Languages: 4},
}

// TestSolveFromMatchesColdSolve pins SolveFrom's contract: the seed labels
// change speed, never the answer. On the golden corpus and 200 random
// documents, with relaxation on and off, a re-solve from the plan carrying
// random device latencies, and now and then one more arc to drop, equals —
// event for event, victim for victim, conflict for conflict — the cold
// Solve of a fresh Build of the document rewritten to say the same: the
// plan's dropped arcs and the extra one removed, each latency written as a
// Must arc from the root's begin. Latencies reach 400ms on the random
// documents so the runs drop further arcs and hit Must conflicts too.
func TestSolveFromMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var docs []*core.Document
	for _, spec := range goldenSpecs {
		docs = append(docs, corpusDoc(t, spec))
	}
	for i := 0; i < 200; i++ {
		d := randomDoc(t, rng)
		// randomDoc's arcs join leaves, so the whole document can slide
		// later and no latency ever conflicts. Windows measured from the
		// root's begin are what a late device can break.
		leaves := d.Root.Leaves()
		for k := rng.Intn(3); k > 0; k-- {
			strict := core.Must
			if rng.Intn(3) > 0 {
				strict = core.May
			}
			leaves[rng.Intn(len(leaves))].AddArc(core.SyncArc{
				Source: "/", SrcEnd: core.Begin, Dest: "", DestEnd: core.Begin,
				MaxDelay: units.MS(int64(rng.Intn(1500))), Strict: strict,
			})
		}
		docs = append(docs, d)
	}
	var plans, perturbed, further, conflicts, extra int
	for i, d := range docs {
		maxLat := 400 * time.Millisecond
		if i < len(goldenSpecs) {
			maxLat = 30 * time.Millisecond
		}
		// Rigid leaves on half the random documents: with no freeze-frame
		// to absorb a late start, latencies turn into real conflicts.
		bopts := Options{DefaultLeafDuration: 500 * time.Millisecond}
		if i >= len(goldenSpecs) {
			bopts.RigidLeaves, bopts.SeqGaps = rng.Intn(2) == 0, rng.Intn(3) == 0
		}
		g, err := Build(d, bopts)
		if err != nil {
			continue // a random arc failed to resolve; not this test's topic
		}
		for _, relax := range []bool{true, false} {
			opts := SolveOptions{Relax: relax}
			plan, err := g.Solve(opts)
			if err != nil {
				continue
			}
			plans++

			// Unperturbed, the re-solve is the plan.
			same, err := g.SolveFrom(plan, nil, nil, opts)
			if err != nil {
				t.Fatalf("doc %d relax %v: re-solving the plan's own graph: %v", i, relax, err)
			}
			sameSchedule(t, d, same, plan)
			sameRefs(t, same.Dropped, plan.Dropped)

			var bounds []Constraint
			var late []lateStart
			for _, n := range d.Root.Leaves() {
				if lat := time.Duration(rng.Int63n(int64(maxLat))); rng.Intn(3) > 0 {
					// In whole milliseconds, the finest unit an arc states.
					at := (plan.StartOf(n) + lat).Round(time.Millisecond)
					bounds = append(bounds, RuntimeLower(0, g.Begin(n), at, func() string { return "latency on " + n.PathString() }))
					late = append(late, lateStart{n, at})
				}
			}
			var drop []ArcRef
			if arcs := g.Arcs(); len(arcs) > 0 && rng.Intn(2) == 0 {
				if r := arcs[rng.Intn(len(arcs))]; !slices.ContainsFunc(plan.Dropped, func(p ArcRef) bool { return keyOf(p) == keyOf(r) }) {
					drop = append(drop, r)
					extra++
				}
			}
			want, errWant := rewrittenSolve(t, d, bopts, opts, append(slices.Clone(plan.Dropped), drop...), late)
			got, errGot := g.SolveFrom(plan, bounds, drop, opts)
			if errWant != nil || errGot != nil {
				var ce *ConflictError
				if errWant == nil || errGot == nil || !errors.As(errWant, &ce) || !errors.As(errGot, &ce) {
					t.Fatalf("doc %d relax %v: cold err %v, from-plan err %v", i, relax, errWant, errGot)
				}
				conflicts++
				continue
			}
			if !slices.Equal(got.Times(), want.Times()) {
				t.Fatalf("doc %d relax %v: re-solved times %v, cold %v", i, relax, got.Times(), want.Times())
			}
			sameRefs(t, got.Dropped, append(slices.Clone(plan.Dropped), want.Dropped...))
			if viol := g.Verify(got.Times(), bounds, append(slices.Clone(got.Dropped), drop...)); len(viol) != 0 {
				t.Errorf("doc %d relax %v: re-solved schedule violates %d constraints, first: %s", i, relax, len(viol), viol[0].Note())
			}
			if len(want.Dropped) > 0 {
				further++
			}
			if got.Makespan() != plan.Makespan() {
				perturbed++
			}
		}
	}
	t.Logf("%d plans: %d runs moved the makespan, %d dropped further arcs, %d ended in a Must conflict, %d dropped an extra arc", plans, perturbed, further, conflicts, extra)
	if plans < 250 || further == 0 || conflicts == 0 || extra == 0 {
		t.Error("the corpus no longer exercises further drops, extra drops and conflicts; the equivalence is vacuous")
	}
}

// lateStart is a runtime lower bound as a document can state it: leaf
// begins no earlier than at after the root's begin.
type lateStart struct {
	leaf *core.Node
	at   time.Duration
}

// rewrittenSolve builds and solves, cold, a copy of d rewritten to carry a
// perturbation itself: without the arcs in drop (removed with
// edit.RemoveArc, highest index first per carrier) and with each bound of
// late as a Must arc its leaf carries from the root's begin. Events number
// alike in d's graph and the copy's, both laid out in the same pre-order,
// and the victims it returns are d's arcs.
func rewrittenSolve(t *testing.T, d *core.Document, bopts Options, opts SolveOptions, drop []ArcRef, late []lateStart) (*Schedule, error) {
	t.Helper()
	c := d.Clone()
	twin, orig := map[*core.Node]*core.Node{}, map[*core.Node]*core.Node{}
	var ns []*core.Node
	d.Root.Walk(func(n *core.Node) bool { ns = append(ns, n); return true })
	c.Root.Walk(func(n *core.Node) bool {
		twin[ns[len(twin)]], orig[n] = n, ns[len(twin)]
		return true
	})
	drop = slices.Clone(drop)
	slices.SortFunc(drop, func(a, b ArcRef) int { return b.Index - a.Index })
	for _, r := range drop {
		if err := edit.RemoveArc(c, twin[r.Node].PathString(), r.Index); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range late {
		twin[l.leaf].AddArc(core.SyncArc{
			Source: "/", SrcEnd: core.Begin, Dest: "", DestEnd: core.Begin,
			Offset: units.MS(l.at.Milliseconds()), MinDelay: units.MS(0),
			MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
		})
	}
	g, err := Build(c, bopts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(opts)
	if err != nil {
		return nil, err
	}
	for i, r := range s.Dropped {
		n := orig[r.Node]
		for _, gone := range slices.Backward(drop) { // lowest index first
			if gone.Node == n && gone.Index <= r.Index {
				r.Index++
			}
		}
		s.Dropped[i] = ArcRef{Node: n, Index: r.Index, Arc: r.Arc}
	}
	return s, nil
}

func sameRefs(t *testing.T, got, want []ArcRef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dropped %v, want %v", got, want)
	}
	for i := range got {
		if keyOf(got[i]) != keyOf(want[i]) {
			t.Fatalf("dropped[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
