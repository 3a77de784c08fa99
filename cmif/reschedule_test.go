package cmif_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/cmif"
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

	// Stretch one leaf.
	if err := d.SetNodeAttr("/audio-strand/audio-b", "duration", cmif.Qty(cmif.MS(900))); err != nil {
		t.Fatal(err)
	}
	plan2, err := plan.Reschedule()
	if err != nil {
		t.Fatal(err)
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

	// An arc between strands.
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
// new events: it reads them as zero and its views do not panic, playing it
// is refused, and playing the rescheduled plan works.
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
	if got := old.StartOf(extra); got != 0 {
		t.Errorf("stale plan starts the node it never scheduled at %v, want 0", got)
	}
	if old.Timeline(cmif.TimelineOptions{}) == "" || old.TOC() == "" {
		t.Error("stale plan rendered an empty view")
	}
	if seek := old.AnalyzeSeek(old.Makespan() / 2); len(seek.Active) == 0 {
		t.Error("stale plan lands on no active leaf mid-presentation")
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

// TestInsertIndexEnds pins what an insert index means at either end, on a
// local document and over SubmitEdit on the server's copy and a
// subscriber's replica: a negative index inserts first, an index past the
// end appends.
func TestInsertIndexEnds(t *testing.T) {
	leaf := func(name string) *cmif.Node {
		return cmif.NewImm(nil).SetName(name).SetAttr("duration", cmif.Qty(cmif.MS(75)))
	}
	want := []string{"text-first", "text-a", "text-b", "text-c", "text-d", "text-last"}
	check := func(label string, d *cmif.Document) {
		t.Helper()
		strand, err := d.Root().Resolve("/text-strand")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range strand.Children() {
			got = append(got, c.Name())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: /text-strand holds %v, want %v", label, got, want)
		}
	}

	local := buildShow(t)
	if _, err := local.InsertNode("/text-strand", -1, leaf("text-first")); err != nil {
		t.Fatal(err)
	}
	if _, err := local.InsertNode("/text-strand", 99, leaf("text-last")); err != nil {
		t.Fatal(err)
	}
	check("InsertNode", local)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv := cmif.NewServer(cmif.WithServedDocument("show", buildShow(t)))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(ctx, "show")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	gen, err := c.SubmitEdit(ctx, "show", cmif.NewEditBatch().
		Insert("/text-strand", -1, leaf("text-first")).
		Insert("/text-strand", 99, leaf("text-last")))
	if err != nil {
		t.Fatal(err)
	}
	for sub.Generation() < gen {
		if _, err := sub.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	server, err := c.Document(ctx, "show")
	if err != nil {
		t.Fatal(err)
	}
	check("server copy", server)
	check("subscriber replica", sub.Document())
	first, err := sub.Document().Root().Resolve("/text-strand/text-first")
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Plan().StartOf(first); got != 0 {
		t.Errorf("replica plan starts text-first at %v, want 0", got)
	}
}
