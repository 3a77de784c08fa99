package sched

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/units"
)

// fullSolve is the ground truth: a fresh build and classic solve.
func fullSolve(t *testing.T, d *core.Document, opts Options, sopts SolveOptions) *Schedule {
	t.Helper()
	g, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sopts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestSolver(t *testing.T, d *core.Document) *Solver {
	t.Helper()
	s, err := NewSolver(d, Options{}, SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(); err != nil {
		t.Fatal(err)
	}
	return s
}

func reschedule(t *testing.T, s *Solver) *Schedule {
	t.Helper()
	sch, err := s.Reschedule()
	if err != nil {
		t.Fatal(err)
	}
	if viol := s.Graph().Verify(sch.Times(), nil, sch.Dropped); len(viol) != 0 {
		t.Fatalf("incremental schedule violates constraints: %v", viol[0])
	}
	return sch
}

// wantPasses asserts how many times the solver rebuilt its graph and ran
// the relax loop since NewSolver.
func wantPasses(t *testing.T, s *Solver, rebuilds, solves int) {
	t.Helper()
	if s.rebuilds != rebuilds || s.solves != solves {
		t.Fatalf("%d rebuilds, %d solves; want %d, %d", s.rebuilds, s.solves, rebuilds, solves)
	}
}

func TestRescheduleDurationChange(t *testing.T) {
	d := parOfSeq(t, 4, 6)
	s := newTestSolver(t, d)

	// The edit patches the graph, which is solved once more — not rebuilt.
	if err := edit.SetAttr(d, "/armb/lcb", "duration", attr.Quantity(units.MS(700))); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	wantPasses(t, s, 0, 2)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	// The saving is in work done, not only in the counters: on a wider
	// document, absorbing single-leaf edits by patching allocates at most
	// a quarter of what rebuilding and re-solving the graph does.
	d = parOfSeq(t, 8, 24)
	s = newTestSolver(t, d)
	churn := func(absorb func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 8; i++ {
			if err := edit.SetAttr(d, "/armb/lcb", "duration", attr.Quantity(units.MS(int64(700+i)))); err != nil {
				t.Fatal(err)
			}
			absorb()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	incremental := churn(func() {
		if _, err := s.Reschedule(); err != nil {
			t.Fatal(err)
		}
	})
	full := churn(func() { fullSolve(t, d, Options{}, SolveOptions{Relax: true}) })
	if incremental*4 > full {
		t.Errorf("incremental reschedule allocated %d bytes over 8 edits, not ≤ 1/4 of the full re-solve's %d", incremental, full)
	}
}

func TestRescheduleNoChangesReusesEverything(t *testing.T) {
	d := parOfSeq(t, 3, 3)
	s := newTestSolver(t, d)
	sch := reschedule(t, s)
	wantPasses(t, s, 0, 1)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	// An edit that changes no constraint patches the graph and keeps the
	// last schedule without solving.
	if err := edit.SetAttr(d, "/armb/lab", "file", attr.String("other.dat")); err != nil {
		t.Fatal(err)
	}
	if again := reschedule(t, s); again != sch {
		t.Fatal("an edit that changes no constraint produced a new schedule")
	}
	wantPasses(t, s, 0, 1)
}

func TestRescheduleArcAddedAndRemoved(t *testing.T) {
	d := parOfSeq(t, 3, 4)
	s := newTestSolver(t, d)

	a := core.SyncArc{
		Source: "lac", SrcEnd: core.End, Dest: "lcc", DestEnd: core.Begin,
		Offset: units.MS(40), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
	}
	if err := edit.AddArc(d, "/armc", a); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	wantPasses(t, s, 0, 2)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	if err := edit.RemoveArc(d, "/armc", 0); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	wantPasses(t, s, 0, 3)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

// TestRescheduleCrossComponentArcMergesAndSplits joins two arms — two
// weakly-connected components of the constraint graph — with an arc and
// parts them again; either way the patched graph solves like a fresh one.
func TestRescheduleCrossComponentArcMergesAndSplits(t *testing.T) {
	d := parOfSeq(t, 3, 3)
	s := newTestSolver(t, d)

	a := core.SyncArc{
		Source: "laa", SrcEnd: core.End, Dest: "../armb/lbb", DestEnd: core.Begin,
		Offset: units.MS(15), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
	}
	if err := edit.AddArc(d, "/arma", a); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	wantPasses(t, s, 0, 2)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	if err := edit.RemoveArc(d, "/arma", 0); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	wantPasses(t, s, 0, 3)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleReparent(t *testing.T) {
	d := parOfSeq(t, 3, 4)
	s := newTestSolver(t, d)

	// Move a leaf from arma into armc.
	if _, err := edit.MoveNode(d, "/arma/lba", "/armc", 1); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	wantPasses(t, s, 0, 2)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleInsertAndDelete(t *testing.T) {
	d := parOfSeq(t, 3, 3)
	s := newTestSolver(t, d)

	extra := leaf("fresh", "video", 400)
	if _, err := edit.InsertNode(d, "/armb", 1, extra); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	wantPasses(t, s, 0, 2)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	if _, err := edit.DeleteNode(d, "/armb/fresh"); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	wantPasses(t, s, 0, 3)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	// Deleting a whole arm tombstones its events.
	if _, err := edit.DeleteNode(d, "/armc"); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	wantPasses(t, s, 0, 4)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

// TestScheduleAfterCompactingRebuild: once deleted nodes fill the event
// table, Reschedule rebuilds the graph, and a Schedule with no edit since
// is answered warm over the new graph's pool, which is shorter than the
// old one's.
func TestScheduleAfterCompactingRebuild(t *testing.T) {
	d := corpusDoc(t, corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 6, Languages: 3})
	s := newTestSolver(t, d)
	pair := livePairs(t, d).insert
	for i := 0; s.rebuilds == 0; i++ {
		if i == 1000 {
			t.Fatal("1,000 inserts and deletes never compacted the event table")
		}
		if err := pair[i%2](i); err != nil {
			t.Fatal(err)
		}
		reschedule(t, s)
	}
	sch, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleRename(t *testing.T) {
	d := parOfSeq(t, 2, 3)
	d.Root.FindByName("arma").AddArc(core.SyncArc{
		Source: "laa", SrcEnd: core.End, Dest: "lca", DestEnd: core.Begin,
		Offset: units.MS(5), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
	})
	s := newTestSolver(t, d)
	if _, err := edit.RenameNode(d, "/arma/lca", "tail"); err != nil {
		t.Fatal(err)
	}
	// The arc naming the node is rewritten: a patch, not a rebuild.
	sch := reschedule(t, s)
	wantPasses(t, s, 0, 2)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleGlobalChangeRebuilds(t *testing.T) {
	d := parOfSeq(t, 2, 2)
	s := newTestSolver(t, d)

	// Direct tree mutation + Refresh is the untracked-edit escape hatch.
	d.Root.FindByName("armb").AddChild(leaf("direct", "video", 250))
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	wantPasses(t, s, 1, 2)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	// A rebuild that fails keeps failing until the document is repaired:
	// the change that broke it is not forgotten.
	d.Root.FindByName("armb").AddArc(core.SyncArc{
		Source: "nosuch", SrcEnd: core.End, Dest: "", DestEnd: core.Begin,
		Offset: units.MS(0), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
	})
	d.NoteGlobalChange()
	for i := 0; i < 2; i++ {
		if _, err := s.Reschedule(); err == nil {
			t.Fatalf("reschedule %d of a document whose arc does not resolve succeeded", i)
		}
	}
}

// TestRescheduleAfterATrim: a solver that fell behind a trimmed change
// log cannot patch — the records it missed are gone — so it rebuilds,
// and the schedule is a fresh solve's; one that had read everything
// before the trim keeps patching.
func TestRescheduleAfterATrim(t *testing.T) {
	d := parOfSeq(t, 2, 2)
	behind, current := newTestSolver(t, d), newTestSolver(t, d)
	if err := edit.SetAttr(d, "/arma/laa", "duration", attr.Quantity(units.MS(900))); err != nil {
		t.Fatal(err)
	}
	reschedule(t, current)
	d.TrimChanges()
	if err := edit.SetAttr(d, "/armb/lab", "duration", attr.Quantity(units.MS(700))); err != nil {
		t.Fatal(err)
	}
	want := fullSolve(t, d, Options{}, SolveOptions{Relax: true})
	sameSchedule(t, d, reschedule(t, behind), want)
	wantPasses(t, behind, 1, 2)
	sameSchedule(t, d, reschedule(t, current), want)
	wantPasses(t, current, 0, 3)
}

// TestRescheduleRelaxationStaysPerComponent: a conflict inside one arm
// drops an arc of that arm and leaves the others' times as a fresh solve
// places them.
func TestRescheduleRelaxationStaysPerComponent(t *testing.T) {
	d := parOfSeq(t, 3, 3)
	s := newTestSolver(t, d)

	// A conflicting May arc inside armb: relaxation drops it and nothing
	// else.
	if err := edit.AddArc(d, "/armb", core.SyncArc{
		Source: "lcb", SrcEnd: core.End, Dest: "lab", DestEnd: core.Begin,
		Offset: units.MS(100), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.May,
	}); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	if len(sch.Dropped) != 1 {
		t.Fatalf("dropped = %v, want the May arc", sch.Dropped)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleRandomEditChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := parOfSeq(t, 5, 6)
	s := newTestSolver(t, d)

	arms := []string{"arma", "armb", "armc", "armd", "arme"}
	for step := 0; step < 60; step++ {
		arm := arms[rng.Intn(len(arms))]
		armNode := d.Root.FindByName(arm)
		if armNode == nil || armNode.NumChildren() == 0 {
			continue
		}
		child := armNode.Child(rng.Intn(armNode.NumChildren()))
		switch rng.Intn(4) {
		case 0: // duration tweak
			if err := edit.SetAttr(d, child.PathString(), "duration",
				attr.Quantity(units.MS(int64(20+rng.Intn(500))))); err != nil {
				t.Fatal(err)
			}
		case 1: // insert a leaf
			if _, err := edit.InsertNode(d, "/"+arm, rng.Intn(armNode.NumChildren()+1),
				leaf("x"+itoa(step), "video", int64(30+rng.Intn(300)))); err != nil {
				t.Fatal(err)
			}
		case 2: // delete a leaf (keep arms non-empty, avoid arc targets)
			if armNode.NumChildren() > 2 && len(d.Root.FindByName(arm).Children()) > 2 {
				if _, err := edit.DeleteNode(d, child.PathString()); err != nil {
					t.Fatal(err)
				}
			}
		case 3: // move a leaf to another arm
			dst := arms[rng.Intn(len(arms))]
			if dst != arm {
				if _, err := edit.MoveNode(d, child.PathString(), "/"+dst, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		sch := reschedule(t, s)
		sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
	}
}

func TestSolverScheduleAfterUntrackedGeneration(t *testing.T) {
	// Schedule (not Reschedule) must also notice document changes.
	d := parOfSeq(t, 2, 2)
	s := newTestSolver(t, d)
	if err := edit.SetAttr(d, "/arma/laa", "duration", attr.Quantity(units.MS(999))); err != nil {
		t.Fatal(err)
	}
	sch, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleRecoversAfterFailedPatch(t *testing.T) {
	d := parOfSeq(t, 3, 3)
	// armb carries an arc pointing into armc; deleting the target severs it.
	if err := edit.AddArc(d, "/armb", core.SyncArc{
		Source: "lab", SrcEnd: core.End, Dest: "../armc/lac", DestEnd: core.Begin,
		Offset: units.MS(5), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
	}); err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, d)

	if _, err := edit.DeleteNode(d, "/armc/lac"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reschedule(); err == nil {
		t.Fatal("expected a broken-arc error from Reschedule")
	}
	// The graph is half-patched; further calls must not panic and must
	// keep reporting the unresolvable arc until the document is repaired.
	if _, err := s.Reschedule(); err == nil {
		t.Fatal("expected the error to persist while the document is broken")
	}
	if err := edit.RemoveArc(d, "/armb", 0); err != nil {
		t.Fatal(err)
	}
	sch, err := s.Reschedule()
	if err != nil {
		t.Fatalf("reschedule after repair: %v", err)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleStyleDrivenChannelChange(t *testing.T) {
	// A style can define a leaf's channel, and channels carry the unit
	// rates that convert frame durations and arc offsets: a "style" edit
	// must re-derive arc blocks just like a direct "channel" edit.
	d := parOfSeq(t, 2, 3)
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo,
		Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "fastvideo", Medium: core.MediumVideo,
		Rates: units.Rates{FrameRate: 50}})
	d.SetChannels(cd)
	sd := attr.NewStyleDict()
	slow := attr.List{}
	slow.Set("channel", attr.ID("video"))
	sd.Define("slow", slow)
	fast := attr.List{}
	fast.Set("channel", attr.ID("fastvideo"))
	sd.Define("fast", fast)
	d.SetStyles(sd)

	// The leaf's channel comes from its style (an explicit channel attr
	// would win over any style); durations and offsets are in frames.
	laa := d.Root.FindByName("arma").Child(0)
	laa.Attrs.Del("channel")
	laa.SetAttr("style", attr.ID("slow"))
	if err := edit.SetAttr(d, "/arma/laa", "duration",
		attr.Quantity(units.Q(50, units.Frames))); err != nil {
		t.Fatal(err)
	}
	if err := edit.AddArc(d, "/arma", core.SyncArc{
		Source: "laa", SrcEnd: core.End, Dest: "lca", DestEnd: core.Begin,
		Offset: units.Q(25, units.Frames), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
	}); err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, d)

	// Switching the style halves every frame conversion (25fps → 50fps).
	if err := edit.SetAttr(d, "/arma/laa", "style", attr.ID("fast")); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

// parOfSeq builds a par root with arms seq arms of leavesPerArm leaves
// each, durations cycling deterministically.
func parOfSeq(t testing.TB, arms, leavesPerArm int) *core.Document {
	t.Helper()
	root := core.NewPar().SetName("r")
	for a := 0; a < arms; a++ {
		arm := core.NewSeq().SetName(armName(a))
		for l := 0; l < leavesPerArm; l++ {
			arm.AddChild(leaf(leafName(a, l), "video", int64(50+(a*31+l*17)%200)))
		}
		root.AddChild(arm)
	}
	return doc(t, root)
}

// armName yields "arma", "armb", …; past the 26th arm a round number is
// appended ("arma1").
func armName(a int) string {
	name := "arm" + string(rune('a'+a%26))
	if a >= 26 {
		name += itoa(a / 26)
	}
	return name
}

// leafName yields "l" + leaf letter + arm letter, e.g. arm 1's third leaf
// is "lcb": unique within an arm, and across the first 26 arms.
func leafName(a, l int) string {
	return "l" + string(rune('a'+l%26)) + string(rune('a'+a%26))
}

// sameSchedule asserts two schedules assign identical times to every node
// of the document (the schedules may come from different graphs).
func sameSchedule(t *testing.T, d *core.Document, got, want *Schedule) {
	t.Helper()
	if got.Makespan() != want.Makespan() {
		t.Errorf("makespan: got %v, want %v", got.Makespan(), want.Makespan())
	}
	d.Root.Walk(func(n *core.Node) bool {
		if got.StartOf(n) != want.StartOf(n) || got.EndOf(n) != want.EndOf(n) {
			t.Errorf("%s: got [%v,%v], want [%v,%v]", n.PathString(),
				got.StartOf(n), got.EndOf(n), want.StartOf(n), want.EndOf(n))
		}
		return true
	})
}

// solverSchedule runs the incremental Solver's full pass over the
// document.
func solverSchedule(d *core.Document, opts Options, sopts SolveOptions) (*Schedule, error) {
	s, err := NewSolver(d, opts, sopts)
	if err != nil {
		return nil, err
	}
	return s.Schedule()
}

func TestSolverMatchesSolve(t *testing.T) {
	d := parOfSeq(t, 4, 5)
	// Explicit arcs inside two arms plus one crossing pair of arms.
	arc := func(src, dst string, offMS int64) core.SyncArc {
		return core.SyncArc{
			Source: src, SrcEnd: core.End, Dest: dst, DestEnd: core.Begin,
			Offset: units.MS(offMS), MinDelay: units.MS(0),
			MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
		}
	}
	d.Root.FindByName("arma").AddArc(arc("laa", "lca", 10))
	d.Root.FindByName("armb").AddArc(arc("lab", "ldb", 25))
	d.Root.FindByName("armc").AddArc(arc("../arma/laa", "lbc", 5))

	g, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := solverSchedule(d, Options{}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, d, got, want)
}

// TestSolveParallelForwardsToSolve holds the forward the frozen benchmark
// harness still calls equal to Solve until it is deleted.
func TestSolveParallelForwardsToSolve(t *testing.T) {
	g, err := Build(parOfSeq(t, 3, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, errWant := g.Solve(SolveOptions{})
	got, errGot := g.SolveParallel(SolveOptions{})
	if errWant != nil || errGot != nil {
		t.Fatal(errWant, errGot)
	}
	sameSchedule(t, g.Doc(), got, want)
}

func TestSolverRelaxation(t *testing.T) {
	// A May arc that contradicts seq order inside one arm: both paths must
	// drop it and agree on the schedule.
	d := parOfSeq(t, 3, 3)
	d.Root.FindByName("armb").AddArc(core.SyncArc{
		Source: "lcb", SrcEnd: core.End, Dest: "lab", DestEnd: core.Begin,
		Offset: units.MS(50), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.May,
	})
	g, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Solve(SolveOptions{}); err == nil {
		t.Fatal("expected a conflict without relaxation")
	}
	if _, err := solverSchedule(d, Options{}, SolveOptions{}); err == nil {
		t.Fatal("expected a Solver conflict without relaxation")
	}
	want, err := g.Solve(SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := solverSchedule(d, Options{}, SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, d, got, want)
	if len(got.Dropped) != len(want.Dropped) {
		t.Fatalf("dropped: solver %v, single %v", got.Dropped, want.Dropped)
	}
}

func TestSolverRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		d := randomDoc(t, rng)
		opts := Options{DefaultLeafDuration: 100 * time.Millisecond}
		if rng.Intn(3) == 0 {
			opts.SeqGaps = true
		}
		if rng.Intn(4) == 0 {
			opts.RigidLeaves = true
		}
		g, err := Build(d, opts)
		if err != nil {
			continue // a random arc failed to resolve; not this test's topic
		}
		want, errWant := g.Solve(SolveOptions{Relax: true})
		got, errGot := solverSchedule(d, opts, SolveOptions{Relax: true})
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("iter %d: single err %v, solver err %v", iter, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		sameSchedule(t, d, got, want)
	}
}

// randomDoc builds a random tree with a few random (possibly conflicting)
// arcs between named leaves.
func randomDoc(t *testing.T, rng *rand.Rand) *core.Document {
	t.Helper()
	var leaves []*core.Node
	var build func(depth int) *core.Node
	id := 0
	build = func(depth int) *core.Node {
		if depth >= 3 || (depth > 0 && rng.Intn(3) == 0) {
			id++
			l := leaf("n"+itoa(id), "video", int64(20+rng.Intn(300)))
			leaves = append(leaves, l)
			return l
		}
		var n *core.Node
		if rng.Intn(2) == 0 {
			n = core.NewSeq()
		} else {
			n = core.NewPar()
		}
		id++
		n.SetName("n" + itoa(id))
		for i := 0; i < 2+rng.Intn(3); i++ {
			n.AddChild(build(depth + 1))
		}
		return n
	}
	root := build(0)
	if root.Type.IsLeaf() {
		wrap := core.NewPar().SetName("rt")
		wrap.AddChild(root)
		root = wrap
	}
	d := doc(t, root)
	for i := 0; i < rng.Intn(4) && len(leaves) >= 2; i++ {
		a, b := leaves[rng.Intn(len(leaves))], leaves[rng.Intn(len(leaves))]
		if a == b {
			continue
		}
		strict := core.Must
		if rng.Intn(2) == 0 {
			strict = core.May
		}
		maxD := units.InfiniteQuantity()
		if rng.Intn(2) == 0 {
			maxD = units.MS(int64(rng.Intn(500)))
		}
		a.AddArc(core.SyncArc{
			Source: "", SrcEnd: core.EndPoint(rng.Intn(2)),
			Dest: b.PathString(), DestEnd: core.EndPoint(rng.Intn(2)),
			Offset: units.MS(int64(rng.Intn(200))), MinDelay: units.MS(0),
			MaxDelay: maxD, Strict: strict,
		})
	}
	return d
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
