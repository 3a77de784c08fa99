package player

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/sched"
)

// corpusGolden pins the scheduler's answers on the benchmark's corpus
// shapes: the makespan, the May arcs relaxation drops — in victim order, as
// carrier path#index — and what playback under UniformJitter(1, 30ms) makes
// of them. The Archive and NewsWeb rows have no conflicts and have not moved
// since they were recorded.
//
// The DeepNest rows moved once, on purpose, when relaxation became
// insertion: the loop now admits May arcs one at a time in document order
// and drops an arc only if it cannot hold together with the Must
// constraints and the arcs kept before it, so victims are listed in
// document order. The loop before it dropped the first May arc on whatever
// negative cycle a cold sweep met first, and on every DeepNest row some of
// its victims could each be put back alone with no conflict — gratuitous
// drops, which the oracle in internal/sched (TestSolveOracle) rejects.
// Keeping those arcs keeps their lower bounds, so every makespan grew:
//
//	row            dropped  gratuitous  makespan
//	deepnest-204   14 → 10       4      29.676s → 34.923s
//	deepnest-205   12 → 10       4      30.379s → 38.869s
//	deepnest-206   28 → 25       5      24.291s → 28.573s
//	deepnest-207   27 → 26       4      22.644s → 29.233s
//	deepnest-208   30 → 25       4      18.204s → 31.246s
//
// Drop counts fall by more or less than the gratuitous count because a kept
// arc can rule out a later one the old victims left room for. Playback
// follows each new plan within the jitter bound, as before.
var corpusGolden = []struct {
	spec               corpus.Spec
	makespan, finished string
	droppedMay         int
	dropped            string
}{
	{
		spec:     corpus.Spec{Shape: corpus.Archive, Seed: 201, Size: 20},
		makespan: "6m14.607s", finished: "6m14.636934122s", droppedMay: 0,
	},
	{
		spec:     corpus.Spec{Shape: corpus.DeepNest, Seed: 204, Size: 3, Depth: 3},
		makespan: "34.923s", finished: "34.949763672s", droppedMay: 10,
		dropped: `
			/seq-0/par-1/seq-0/leaf-0#0
			/seq-0/par-2/seq-0/leaf-0#0
			/seq-0/par-2/seq-1/leaf-0#0
			/seq-0/par-2/seq-2/leaf-0#0
			/seq-1/par-2/seq-0/leaf-0#0
			/seq-1/par-2/seq-1/leaf-0#0
			/seq-2/par-1/seq-2/leaf-0#0
			/seq-2/par-2/seq-0/leaf-0#0
			/seq-2/par-2/seq-1/leaf-0#0
			/seq-2/par-2/seq-2/leaf-0#0`,
	},
	{
		spec:     corpus.Spec{Shape: corpus.DeepNest, Seed: 205, Size: 3, Depth: 3},
		makespan: "38.869s", finished: "38.898761617s", droppedMay: 10,
		dropped: `
			/seq-0/par-1/seq-0/leaf-0#0
			/seq-0/par-1/seq-1/leaf-0#0
			/seq-0/par-1/seq-2/leaf-0#0
			/seq-0/par-2/seq-0/leaf-0#0
			/seq-0/par-2/seq-1/leaf-0#0
			/seq-0/par-2/seq-2/leaf-0#0
			/seq-1/par-1/seq-0/leaf-0#0
			/seq-1/par-2/seq-0/leaf-0#0
			/seq-1/par-2/seq-2/leaf-0#0
			/seq-2/par-1/seq-0/leaf-0#0`,
	},
	{
		spec:     corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6},
		makespan: "28.573s", finished: "28.601985489s", droppedMay: 25,
		dropped: `
			/seq-0/par-0/seq-0/par-1/seq-1/par-0/leaf-0#0
			/seq-0/par-0/seq-0/par-1/seq-1/par-1/leaf-1#0
			/seq-0/par-1/seq-0/par-0/seq-0/par-0/leaf-1#0
			/seq-0/par-1/seq-0/par-0/seq-1/par-0/leaf-0#0
			/seq-0/par-1/seq-0/par-0/seq-1/par-1/leaf-1#0
			/seq-0/par-1/seq-0/par-1/seq-0/par-1/leaf-0#0
			/seq-0/par-1/seq-0/par-1/seq-1/par-0/leaf-1#0
			/seq-0/par-1/seq-1/par-0/seq-0/par-1/leaf-1#0
			/seq-0/par-1/seq-1/par-0/seq-1/par-1/leaf-0#0
			/seq-0/par-1/seq-1/par-1/seq-0/par-0/leaf-1#0
			/seq-0/par-1/seq-1/par-1/seq-1/par-0/leaf-0#0
			/seq-0/par-1/seq-1/par-1/seq-1/par-1/leaf-1#0
			/seq-1/par-0/seq-0/par-1/seq-0/par-0/leaf-0#0
			/seq-1/par-0/seq-0/par-1/seq-1/par-1/leaf-0#0
			/seq-1/par-0/seq-1/par-0/seq-1/par-1/leaf-1#0
			/seq-1/par-0/seq-1/par-1/seq-0/par-1/leaf-0#0
			/seq-1/par-1/seq-0/par-0/seq-0/par-1/leaf-1#0
			/seq-1/par-1/seq-0/par-0/seq-1/par-1/leaf-0#0
			/seq-1/par-1/seq-0/par-1/seq-0/par-0/leaf-1#0
			/seq-1/par-1/seq-0/par-1/seq-1/par-0/leaf-0#0
			/seq-1/par-1/seq-0/par-1/seq-1/par-1/leaf-1#0
			/seq-1/par-1/seq-1/par-0/seq-0/par-1/leaf-0#0
			/seq-1/par-1/seq-1/par-1/seq-0/par-0/leaf-0#0
			/seq-1/par-1/seq-1/par-1/seq-0/par-1/leaf-1#0
			/seq-1/par-1/seq-1/par-1/seq-1/par-1/leaf-0#0`,
	},
	{
		spec:     corpus.Spec{Shape: corpus.DeepNest, Seed: 207, Size: 2, Depth: 6},
		makespan: "29.233s", finished: "29.259553919s", droppedMay: 26,
		dropped: `
			/seq-0/par-0/seq-0/par-1/seq-0/par-0/leaf-1#0
			/seq-0/par-0/seq-0/par-1/seq-1/par-0/leaf-0#0
			/seq-0/par-0/seq-1/par-1/seq-0/par-1/leaf-1#0
			/seq-0/par-0/seq-1/par-1/seq-1/par-1/leaf-0#0
			/seq-0/par-1/seq-0/par-0/seq-0/par-0/leaf-1#0
			/seq-0/par-1/seq-0/par-0/seq-1/par-1/leaf-1#0
			/seq-0/par-1/seq-0/par-1/seq-0/par-1/leaf-0#0
			/seq-0/par-1/seq-0/par-1/seq-1/par-0/leaf-1#0
			/seq-0/par-1/seq-1/par-0/seq-0/par-0/leaf-0#0
			/seq-0/par-1/seq-1/par-0/seq-1/par-1/leaf-0#0
			/seq-0/par-1/seq-1/par-1/seq-0/par-0/leaf-1#0
			/seq-0/par-1/seq-1/par-1/seq-1/par-1/leaf-1#0
			/seq-1/par-0/seq-0/par-1/seq-0/par-0/leaf-0#0
			/seq-1/par-0/seq-0/par-1/seq-0/par-1/leaf-1#0
			/seq-1/par-0/seq-0/par-1/seq-1/par-1/leaf-0#0
			/seq-1/par-0/seq-1/par-1/seq-0/par-1/leaf-0#0
			/seq-1/par-0/seq-1/par-1/seq-1/par-0/leaf-1#0
			/seq-1/par-1/seq-0/par-0/seq-0/par-0/leaf-0#0
			/seq-1/par-1/seq-0/par-0/seq-0/par-1/leaf-1#0
			/seq-1/par-1/seq-0/par-1/seq-0/par-0/leaf-1#0
			/seq-1/par-1/seq-0/par-1/seq-1/par-0/leaf-0#0
			/seq-1/par-1/seq-0/par-1/seq-1/par-1/leaf-1#0
			/seq-1/par-1/seq-1/par-0/seq-1/par-0/leaf-1#0
			/seq-1/par-1/seq-1/par-1/seq-0/par-0/leaf-0#0
			/seq-1/par-1/seq-1/par-1/seq-0/par-1/leaf-1#0
			/seq-1/par-1/seq-1/par-1/seq-1/par-1/leaf-0#0`,
	},
	{
		spec:     corpus.Spec{Shape: corpus.DeepNest, Seed: 208, Size: 2, Depth: 6},
		makespan: "31.246s", finished: "31.274985489s", droppedMay: 25,
		dropped: `
			/seq-0/par-0/seq-0/par-1/seq-0/par-0/leaf-1#0
			/seq-0/par-0/seq-0/par-1/seq-1/par-0/leaf-0#0
			/seq-0/par-0/seq-0/par-1/seq-1/par-1/leaf-1#0
			/seq-0/par-0/seq-1/par-1/seq-0/par-0/leaf-0#0
			/seq-0/par-0/seq-1/par-1/seq-0/par-1/leaf-1#0
			/seq-0/par-1/seq-0/par-0/seq-0/par-0/leaf-1#0
			/seq-0/par-1/seq-0/par-0/seq-1/par-0/leaf-0#0
			/seq-0/par-1/seq-0/par-0/seq-1/par-1/leaf-1#0
			/seq-0/par-1/seq-0/par-1/seq-0/par-1/leaf-0#0
			/seq-0/par-1/seq-0/par-1/seq-1/par-0/leaf-1#0
			/seq-0/par-1/seq-1/par-0/seq-0/par-0/leaf-0#0
			/seq-0/par-1/seq-1/par-0/seq-0/par-1/leaf-1#0
			/seq-0/par-1/seq-1/par-0/seq-1/par-1/leaf-0#0
			/seq-0/par-1/seq-1/par-1/seq-0/par-0/leaf-1#0
			/seq-1/par-0/seq-0/par-1/seq-1/par-1/leaf-0#0
			/seq-1/par-1/seq-0/par-0/seq-0/par-0/leaf-0#0
			/seq-1/par-1/seq-0/par-0/seq-0/par-1/leaf-1#0
			/seq-1/par-1/seq-0/par-0/seq-1/par-1/leaf-0#0
			/seq-1/par-1/seq-0/par-1/seq-0/par-0/leaf-1#0
			/seq-1/par-1/seq-0/par-1/seq-1/par-0/leaf-0#0
			/seq-1/par-1/seq-0/par-1/seq-1/par-1/leaf-1#0
			/seq-1/par-1/seq-1/par-0/seq-0/par-1/leaf-0#0
			/seq-1/par-1/seq-1/par-0/seq-1/par-0/leaf-1#0
			/seq-1/par-1/seq-1/par-1/seq-0/par-0/leaf-0#0
			/seq-1/par-1/seq-1/par-1/seq-1/par-1/leaf-0#0`,
	},
	{
		spec:     corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 8, Languages: 4},
		makespan: "1m46.572s", finished: "1m46.601880863s", droppedMay: 0,
	},
}

// corpusGraph generates a corpus document and builds its constraint graph
// the way pipeline.Run does.
func corpusGraph(tb testing.TB, spec corpus.Spec) *sched.Graph {
	tb.Helper()
	d, _, err := corpus.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := sched.Build(d, sched.Options{DefaultLeafDuration: 500 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestCorpusSchedulesGolden(t *testing.T) {
	for _, want := range corpusGolden {
		t.Run(fmt.Sprintf("%s-%d", want.spec.Shape, want.spec.Seed), func(t *testing.T) {
			g := corpusGraph(t, want.spec)
			s, err := g.Solve(sched.SolveOptions{Relax: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Makespan().String(); got != want.makespan {
				t.Errorf("makespan = %s, want %s", got, want.makespan)
			}
			var dropped []string
			for _, r := range s.Dropped {
				dropped = append(dropped, fmt.Sprintf("%s#%d", r.Node.PathString(), r.Index))
			}
			if got, golden := strings.Join(dropped, "\n"), strings.Join(strings.Fields(want.dropped), "\n"); got != golden {
				t.Errorf("dropped arcs, in victim order:\n%s\nwant:\n%s", got, golden)
			}
			if viol := g.Verify(s.Times(), nil, s.Dropped); len(viol) != 0 {
				t.Errorf("schedule violates %d constraints, first: %s", len(viol), viol[0].Note())
			}

			res, err := Play(g, Options{Jitter: UniformJitter(1, 30*time.Millisecond), Relax: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.FinishedAt.String(); got != want.finished {
				t.Errorf("played FinishedAt = %s, want %s", got, want.finished)
			}
			if len(res.DroppedMay) != want.droppedMay || len(res.MustViolations) != 0 {
				t.Errorf("played: %d May dropped, %d Must violated; want %d, 0",
					len(res.DroppedMay), len(res.MustViolations), want.droppedMay)
			}
		})
	}
}

// TestPlaybackFollowsPlan pins the played run as a perturbation of the plan
// on every golden document: under jitter below 30ms playback sacrifices
// exactly the plan's arcs, in the plan's order, and neither the finish time
// nor any single event strays from the plan by the jitter bound or more.
func TestPlaybackFollowsPlan(t *testing.T) {
	const bound = 30 * time.Millisecond
	for _, want := range corpusGolden {
		t.Run(fmt.Sprintf("%s-%d", want.spec.Shape, want.spec.Seed), func(t *testing.T) {
			g := corpusGraph(t, want.spec)
			plan, err := g.Solve(sched.SolveOptions{Relax: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := PlaySchedule(plan, Options{Jitter: UniformJitter(1, bound), Relax: true})
			if err != nil {
				t.Fatal(err)
			}
			sameArcs(t, res.DroppedMay, plan.Dropped)
			if late := res.FinishedAt - plan.Makespan(); late < 0 || late >= bound {
				t.Errorf("finished %v after a %v plan; want within [0, %v)", res.FinishedAt, plan.Makespan(), bound)
			}
			if res.MaxDrift >= bound {
				t.Errorf("MaxDrift = %v, want under %v", res.MaxDrift, bound)
			}
		})
	}
}

// sameArcs asserts got names want's arcs element for element, none twice.
func sameArcs(t *testing.T, got, want []sched.ArcRef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d arcs, want %d:\n%v\nwant:\n%v", len(got), len(want), got, want)
	}
	seen := map[string]bool{}
	for i := range got {
		if got[i].Node != want[i].Node || got[i].Index != want[i].Index {
			t.Errorf("arc %d = %v, want %v", i, got[i], want[i])
		}
		key := fmt.Sprintf("%s#%d", got[i].Node.PathString(), got[i].Index)
		if seen[key] {
			t.Errorf("arc %d = %v is listed twice", i, got[i])
		}
		seen[key] = true
	}
}
