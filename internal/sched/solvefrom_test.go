package sched

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
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
// documents, with relaxation on and off, a run graph carrying random device
// latencies re-solved from the plan equals — event for event, victim for
// victim, conflict for conflict — a cold Solve of that graph with the plan's
// dropped arcs removed by hand. Latencies reach 400ms on the random
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
	var plans, perturbed, further, conflicts int
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
			same, err := g.SolveFrom(plan, opts)
			if err != nil {
				t.Fatalf("doc %d relax %v: re-solving the plan's own graph: %v", i, relax, err)
			}
			sameSchedule(t, d, same, plan)
			sameRefs(t, same.Dropped, plan.Dropped)

			run := g.Clone()
			for _, n := range d.Root.Leaves() {
				if lat := time.Duration(rng.Int63n(int64(maxLat))); rng.Intn(3) > 0 {
					run.AddRuntimeLower(0, run.Begin(n), plan.StartOf(n)+lat, func() string { return "latency on " + n.PathString() })
				}
			}
			cold := run
			for _, r := range plan.Dropped {
				cold = cold.WithoutArc(r)
			}
			want, errWant := cold.Solve(opts)
			got, errGot := run.SolveFrom(plan, opts)
			if errWant != nil || errGot != nil {
				if errWant == nil || errGot == nil || errWant.Error() != errGot.Error() {
					t.Fatalf("doc %d relax %v: cold err %v, from-plan err %v", i, relax, errWant, errGot)
				}
				conflicts++
				continue
			}
			sameSchedule(t, d, got, want)
			sameRefs(t, got.Dropped, append(append([]ArcRef(nil), plan.Dropped...), want.Dropped...))
			if viol := run.Verify(got.Times(), got.Dropped); len(viol) != 0 {
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
	t.Logf("%d plans: %d runs moved the makespan, %d dropped further arcs, %d ended in a Must conflict", plans, perturbed, further, conflicts)
	if plans < 250 || further == 0 || conflicts == 0 {
		t.Error("the corpus no longer exercises further drops and conflicts; the equivalence is vacuous")
	}
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
