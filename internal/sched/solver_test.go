package sched

import (
	"math/rand"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/units"
	"runtime"
	"testing"
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
	if viol := s.Graph().Verify(sch.Times(), sch.Dropped); len(viol) != 0 {
		t.Fatalf("incremental schedule violates constraints: %v", viol[0])
	}
	return sch
}

func TestRescheduleDurationChange(t *testing.T) {
	d := parOfSeq(t, 4, 6)
	s := newTestSolver(t, d)
	if got := s.Stats().Components; got != 4 {
		t.Fatalf("components = %d, want 4", got)
	}

	if err := edit.SetAttr(d, "/armb/lcb", "duration", attr.Quantity(units.MS(700))); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	st := s.Stats()
	if st.Resolved != 1 || st.Reused != 3 {
		t.Fatalf("stats after single-leaf edit: resolved %d reused %d, want 1/3", st.Resolved, st.Reused)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	// The saving is in work done, not only in the counters: on a wider
	// document, absorbing single-leaf edits incrementally allocates at
	// most a quarter of what rebuilding and re-solving the graph does.
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
	st := s.Stats()
	if st.Resolved != 0 || st.Reused != 3 {
		t.Fatalf("no-op reschedule: resolved %d reused %d, want 0/3", st.Resolved, st.Reused)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleArcAddedAndRemoved(t *testing.T) {
	d := parOfSeq(t, 3, 4)
	s := newTestSolver(t, d)

	// Arc inside one arm: only that component re-solves.
	a := core.SyncArc{
		Source: "lac", SrcEnd: core.End, Dest: "lcc", DestEnd: core.Begin,
		Offset: units.MS(40), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.Must,
	}
	if err := edit.AddArc(d, "/armc", a); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	st := s.Stats()
	if st.Resolved != 1 {
		t.Fatalf("arc add resolved %d components, want 1", st.Resolved)
	}
	if st.Components != 3 {
		t.Fatalf("components = %d, want 3", st.Components)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	if err := edit.RemoveArc(d, "/armc", 0); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	if st = s.Stats(); st.Resolved != 1 {
		t.Fatalf("arc remove resolved %d components, want 1", st.Resolved)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

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
	st := s.Stats()
	if st.Components != 2 {
		t.Fatalf("components after cross-arc = %d, want 2 (arma+armb merged)", st.Components)
	}
	if st.Resolved != 1 || st.Reused != 1 {
		t.Fatalf("cross-arc: resolved %d reused %d, want 1/1", st.Resolved, st.Reused)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	if err := edit.RemoveArc(d, "/arma", 0); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	st = s.Stats()
	if st.Components != 3 {
		t.Fatalf("components after arc removal = %d, want 3", st.Components)
	}
	if st.Resolved != 2 || st.Reused != 1 {
		t.Fatalf("split: resolved %d reused %d, want 2/1", st.Resolved, st.Reused)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleReparent(t *testing.T) {
	d := parOfSeq(t, 3, 4)
	s := newTestSolver(t, d)

	// Move a leaf from arma into armc: both arms' components re-solve.
	if _, err := edit.MoveNode(d, "/arma/lba", "/armc", 1); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	st := s.Stats()
	if st.Resolved != 2 || st.Reused != 1 {
		t.Fatalf("reparent: resolved %d reused %d, want 2/1", st.Resolved, st.Reused)
	}
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
	if st := s.Stats(); st.Resolved != 1 {
		t.Fatalf("insert resolved %d, want 1", st.Resolved)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	if _, err := edit.DeleteNode(d, "/armb/fresh"); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	if st := s.Stats(); st.Resolved != 1 {
		t.Fatalf("delete resolved %d, want 1", st.Resolved)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))

	// Deleting a whole arm removes its component without re-solving any.
	if _, err := edit.DeleteNode(d, "/armc"); err != nil {
		t.Fatal(err)
	}
	sch = reschedule(t, s)
	if st := s.Stats(); st.Components != 2 {
		t.Fatalf("components after arm delete = %d, want 2", st.Components)
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
	sch := reschedule(t, s)
	if st := s.Stats(); st.Resolved != 0 {
		t.Fatalf("rename resolved %d components, want 0 (arcs rewritten, times unchanged)", st.Resolved)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleGlobalChangeRebuilds(t *testing.T) {
	d := parOfSeq(t, 2, 2)
	s := newTestSolver(t, d)
	before := s.Stats().FullRebuilds

	// Direct tree mutation + Refresh is the untracked-edit escape hatch.
	d.Root.FindByName("armb").AddChild(leaf("direct", "video", 250))
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	if got := s.Stats().FullRebuilds; got != before+1 {
		t.Fatalf("full rebuilds = %d, want %d", got, before+1)
	}
	sameSchedule(t, d, sch, fullSolve(t, d, Options{}, SolveOptions{Relax: true}))
}

func TestRescheduleRelaxationStaysPerComponent(t *testing.T) {
	d := parOfSeq(t, 3, 3)
	s := newTestSolver(t, d)

	// A conflicting May arc inside armb: relaxation drops it; the other
	// components' solutions are reused.
	if err := edit.AddArc(d, "/armb", core.SyncArc{
		Source: "lcb", SrcEnd: core.End, Dest: "lab", DestEnd: core.Begin,
		Offset: units.MS(100), MinDelay: units.MS(0),
		MaxDelay: units.InfiniteQuantity(), Strict: core.May,
	}); err != nil {
		t.Fatal(err)
	}
	sch := reschedule(t, s)
	if st := s.Stats(); st.Resolved != 1 || st.Reused != 2 {
		t.Fatalf("conflicting arc: resolved %d reused %d, want 1/2", st.Resolved, st.Reused)
	}
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
