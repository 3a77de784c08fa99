package player

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/sched"
)

// allocated reports the bytes f allocates, by the TotalAlloc delta.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPlayAllocationCeiling is TestSolveAllocationCeiling's (internal/sched)
// counterpart for playback, on the same document, DeepNest 2/6. The unit is
// one cold Solve of the planned graph (its arena plus one copy of the live
// constraints). When Play planned again and then re-solved the jittered
// system cold it allocated 5.5 of them per call. PlaySchedule takes about
// 2.7: the run graph's own constraint list is one, the arena a fraction, and
// the rest is per-leaf attribute resolution and the trace. A second solve,
// or a re-solve that re-finds the plan's 28 victims, costs at least one more
// and breaks the ceiling of three.
func TestPlayAllocationCeiling(t *testing.T) {
	g := corpusGraph(t, corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6})
	var plan *sched.Schedule
	solve := func() {
		var err error
		if plan, err = g.Solve(sched.SolveOptions{Relax: true}); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Jitter: UniformJitter(1, 30*time.Millisecond), Relax: true}
	play := func() {
		if _, err := PlaySchedule(plan, opts); err != nil {
			t.Fatal(err)
		}
	}
	solve() // materializes the graph's cached flat view
	play()
	const calls = 4
	solved := allocated(func() {
		for i := 0; i < calls; i++ {
			solve()
		}
	}) / calls
	played := allocated(func() {
		for i := 0; i < calls; i++ {
			play()
		}
	}) / calls
	t.Logf("PlaySchedule allocated %d bytes per call, one cold Solve %d", played, solved)
	if played >= 3*solved {
		t.Error("playing a plan allocates as much as three cold solves")
	}
}
