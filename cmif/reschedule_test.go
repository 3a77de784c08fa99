package cmif_test

import (
	"repro/cmif"
	"testing"
)

// buildShow authors a par-of-seq document through the facade: three
// parallel strands of sequential leaves.
func buildShow(t *testing.T) *cmif.Document {
	t.Helper()
	root := cmif.NewPar().SetName("show")
	for s, strand := range []string{"video", "audio", "text"} {
		seq := cmif.NewSeq().SetName(strand + "-strand")
		for i := 0; i < 4; i++ {
			seq.AddChild(cmif.NewImm(nil).
				SetName(strand+"-"+string(rune('a'+i))).
				SetAttr("duration", cmif.Qty(cmif.MS(int64(100+50*s+25*i)))))
		}
		root.AddChild(seq)
	}
	d, err := cmif.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func plansAgree(t *testing.T, d *cmif.Document, got, want *cmif.Plan) {
	t.Helper()
	if got.Makespan() != want.Makespan() {
		t.Errorf("makespan: got %v, want %v", got.Makespan(), want.Makespan())
	}
	d.Root().Walk(func(n *cmif.Node) bool {
		if got.StartOf(n) != want.StartOf(n) || got.EndOf(n) != want.EndOf(n) {
			t.Errorf("%s: got [%v,%v], want [%v,%v]", n.PathString(),
				got.StartOf(n), got.EndOf(n), want.StartOf(n), want.EndOf(n))
		}
		return true
	})
}

func TestPlanRescheduleAfterEdits(t *testing.T) {
	d := buildShow(t)
	plan, err := cmif.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.SolveStats().Components; got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}

	// Stretch one leaf; only its strand's component re-solves.
	if err := d.SetNodeAttr("/audio-strand/audio-b", "duration", cmif.Qty(cmif.MS(900))); err != nil {
		t.Fatal(err)
	}
	plan2, err := plan.Reschedule()
	if err != nil {
		t.Fatal(err)
	}
	st := plan2.SolveStats()
	if st.Resolved != 1 || st.Reused != 2 {
		t.Fatalf("resolved %d reused %d, want 1/2", st.Resolved, st.Reused)
	}
	fresh, err := cmif.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	plansAgree(t, d, plan2, fresh)
	if plan2.Makespan() <= plan.Makespan() {
		t.Fatalf("stretched edit should extend the makespan: %v -> %v",
			plan.Makespan(), plan2.Makespan())
	}

	// An arc between strands merges their components.
	if err := d.AddArc("/video-strand", cmif.SyncArc{
		Source: "video-a", SrcEnd: cmif.End,
		Dest: "../text-strand/text-a", DestEnd: cmif.Begin,
		Offset: cmif.MS(10), MinDelay: cmif.MS(0),
		MaxDelay: cmif.InfiniteDelay(), Strict: cmif.Must,
	}); err != nil {
		t.Fatal(err)
	}
	plan3, err := plan2.Reschedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan3.SolveStats().Components; got != 2 {
		t.Fatalf("components after cross-strand arc = %d, want 2", got)
	}
	fresh, err = cmif.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	plansAgree(t, d, plan3, fresh)

	// Structure edits reschedule too.
	if _, err := d.MoveNode("/text-strand/text-d", "/video-strand", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveArc("/video-strand", 0); err != nil {
		t.Fatal(err)
	}
	plan4, err := plan3.Reschedule()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = cmif.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	plansAgree(t, d, plan4, fresh)
}

func TestPlanRescheduleIsFastPathNoop(t *testing.T) {
	d := buildShow(t)
	plan, err := cmif.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	again, err := plan.Reschedule()
	if err != nil {
		t.Fatal(err)
	}
	if st := again.SolveStats(); st.Resolved != 0 {
		t.Fatalf("no-op reschedule resolved %d components", st.Resolved)
	}
	if again.Makespan() != plan.Makespan() {
		t.Fatalf("makespan changed on no-op reschedule")
	}
}

// TestPlayPlaysThePlanItWasGiven: a plan that needed WithRelaxation plays
// without WithPlayRelaxation. The conflict the plan resolved stays resolved;
// the play option governs only what playback may drop on top of it. Play
// used to re-plan from the graph with the play options and fail with
// "planning failed" on the very conflict the plan had already relaxed.
func TestPlayPlaysThePlanItWasGiven(t *testing.T) {
	d := buildShow(t)
	for _, offset := range []int64{0, 50} {
		strict := cmif.Must
		if offset > 0 {
			strict = cmif.May // audio-a cannot also start 50ms after video-a
		}
		if err := d.AddArc("/video-strand", cmif.SyncArc{
			Source: "video-a", SrcEnd: cmif.Begin,
			Dest: "../audio-strand/audio-a", DestEnd: cmif.Begin,
			Offset: cmif.MS(offset), MinDelay: cmif.MS(0), MaxDelay: cmif.MS(0), Strict: strict,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cmif.Schedule(d); err == nil {
		t.Fatal("the conflicting May arc scheduled without relaxation")
	}
	plan, err := cmif.Schedule(d, cmif.WithRelaxation())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.DroppedArcs()) != 1 {
		t.Fatalf("plan dropped %v, want the one May arc", plan.DroppedArcs())
	}
	res, err := plan.Play()
	if err != nil {
		t.Fatalf("playing a relaxed plan without WithPlayRelaxation: %v", err)
	}
	if !res.Success() || res.FinishedAt != plan.Makespan() || res.MaxDrift != 0 {
		t.Errorf("ideal playback: success %v, finished %v (plan %v), drift %v",
			res.Success(), res.FinishedAt, plan.Makespan(), res.MaxDrift)
	}
	if len(res.DroppedMay) != 1 || res.DroppedMay[0].Node != plan.DroppedArcs()[0].Node ||
		res.DroppedMay[0].Index != plan.DroppedArcs()[0].Index {
		t.Errorf("played DroppedMay = %v, want the plan's %v", res.DroppedMay, plan.DroppedArcs())
	}
}

// TestPlayStalePlan: a plan left behind by Reschedule shares the solver's
// live graph. Once that graph has grown, the old plan has no times for the
// new events; playing it is refused, playing the rescheduled plan works.
func TestPlayStalePlan(t *testing.T) {
	d := buildShow(t)
	old, err := cmif.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	extra := cmif.NewImm(nil).SetName("text-e").SetAttr("duration", cmif.Qty(cmif.MS(75)))
	if _, err := d.InsertNode("/text-strand", -1, extra); err != nil {
		t.Fatal(err)
	}
	plan, err := old.Reschedule()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Play(); err == nil {
		t.Error("a plan older than its graph played")
	}
	res, err := plan.Play(cmif.WithJitter(cmif.UniformJitter(3, 10_000_000)))
	if err != nil {
		t.Fatal(err)
	}
	if late := res.FinishedAt - plan.Makespan(); !res.Success() || late < 0 || late >= 10_000_000 {
		t.Errorf("rescheduled plan: success %v, finished %v after a %v plan", res.Success(), res.FinishedAt, plan.Makespan())
	}
}
