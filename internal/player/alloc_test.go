package player

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/units"
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
// cold solve (about 99 KB). A play clones no graph now (its bounds are
// arguments of the re-solve): still about 108 KB.
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

// TestMustVictimAllocation bounds what a Must arc the run cannot honour
// costs. The document is eight copies of TestSweepWindowVsJitter's
// failing shape — a leaf pinned to the root's begin and a late sound leaf
// pinned to it, each carrying a second arc that always holds — beside a
// 600-leaf sequence, so the run drops eight Must arcs, one re-solve each.
// A victim may cost one re-solve's arena, about 45 B per constraint of
// the plan here. It used to cost a clone of the graph as well, which
// copied the whole constraint pool (64 B per constraint) whenever the
// victim's carrier kept another arc, and the block tables: about 144 B
// per constraint in all. The cap is 64 B, one pool copy's worth.
func TestMustVictimAllocation(t *testing.T) {
	const victims, filler = 8, 600
	root := core.NewPar().SetName("r")
	pin := func(n *core.Node, source string, window units.Quantity) {
		n.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
			Source: source, SrcEnd: core.Begin, Dest: "", MaxDelay: window})
	}
	for i := range victims {
		a, b := leaf("a"+strconv.Itoa(i), "video", 300), leaf("b"+strconv.Itoa(i), "sound", 300)
		pin(a, "/", units.MS(0))
		pin(a, "/", units.InfiniteQuantity())
		pin(b, "../a"+strconv.Itoa(i), units.MS(0))
		pin(b, "../a"+strconv.Itoa(i), units.InfiniteQuantity())
		root.Add(a, b)
	}
	seq := core.NewSeq().SetName("filler")
	for i := range filler {
		seq.AddChild(leaf("f"+strconv.Itoa(i), "text", 40))
	}
	root.AddChild(seq)
	g := graph(t, root)
	plan, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	play := func(lat time.Duration) *Result {
		res, err := PlaySchedule(plan, Options{Jitter: ChannelJitter("sound", lat), Relax: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := len(play(50 * time.Millisecond).MustViolations); got != victims {
		t.Fatalf("the run dropped %d Must arcs, want %d", got, victims)
	}
	if got := len(play(0).MustViolations); got != 0 {
		t.Fatalf("the undelayed run dropped %d Must arcs", got)
	}
	const calls = 4
	late := allocated(func() {
		for range calls {
			play(50 * time.Millisecond)
		}
	})
	onTime := allocated(func() {
		for range calls {
			play(0)
		}
	})
	perVictim := (int64(late) - int64(onTime)) / (calls * victims)
	perConstraint := float64(perVictim) / float64(g.NumConstraints())
	t.Logf("a Must victim costs %d bytes, %.1f per constraint of %d", perVictim, perConstraint, g.NumConstraints())
	if perConstraint > 64 {
		t.Error("dropping a Must arc allocates past its cap")
	}
}
