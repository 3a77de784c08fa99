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
// counterpart for playback, on the same document, DeepNest 2/6. When Play
// planned again and then re-solved the jittered system cold it allocated
// 5.5 cold solves' worth per call; the ceiling was then three cold solves,
// 3 × 222,612 B. Relaxation by insertion shrank a cold solve to about
// 87 KB while PlaySchedule stayed at about 382 KB — the run graph's own
// constraint list, per-leaf attribute resolution and the trace — so the
// ceiling became an absolute 440 KB. Since playback reads the plan's
// resolved channels and constraints are 64-byte records whose notes are
// worded only when read, PlaySchedule allocated about 199 KB under a
// 256 KB ceiling. Now the run solves over the plan's cached constraint
// list plus its own runtime constraints, with the plan's 25 dropped arcs
// masked instead of filtered out of a copy (−70 KB), the trace is sized
// for four actions a leaf up front (−25 KB) and the solver's adjacency
// carries each edge's head and weight (+12 KB): PlaySchedule allocated
// about 118 KB under a 160 KB ceiling. Now Build's arena is the plan's
// constraint list and a clone shares the plan's block tables instead of
// copying them (−22 KB): PlaySchedule allocates about 108 KB, and the
// ceiling is 120 KB. Copying the block tables again breaks it, as does
// copying the list (1,017 constraints of 64 B, about 65 KB) or one more
// cold solve (about 99 KB).
func TestPlayAllocationCeiling(t *testing.T) {
	g := corpusGraph(t, corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6})
	plan, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Jitter: UniformJitter(1, 30*time.Millisecond), Relax: true}
	play := func() {
		if _, err := PlaySchedule(plan, opts); err != nil {
			t.Fatal(err)
		}
	}
	play()
	const calls, ceiling = 4, 120 << 10
	played := allocated(func() {
		for i := 0; i < calls; i++ {
			play()
		}
	}) / calls
	t.Logf("PlaySchedule allocated %d bytes per call, ceiling %d", played, ceiling)
	if played >= ceiling {
		t.Error("playing a plan allocates past its ceiling")
	}
}
