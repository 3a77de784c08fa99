package player

import (
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/units"
)

func doc(t *testing.T, root *core.Node) *core.Document {
	t.Helper()
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo,
		Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "sound", Medium: core.MediumAudio,
		Rates: units.Rates{SampleRate: 8000}})
	cd.Define(core.Channel{Name: "text", Medium: core.MediumText})
	d.SetChannels(cd)
	return d
}

func leaf(name, channel string, ms int64) *core.Node {
	return core.NewExt().SetName(name).
		SetAttr("channel", attr.ID(channel)).
		SetAttr("file", attr.String(name+".dat")).
		SetAttr("duration", attr.Quantity(units.MS(ms)))
}

func graph(t *testing.T, root *core.Node) *sched.Graph {
	t.Helper()
	g, err := sched.Build(doc(t, root), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIdealPlaybackMatchesPlan(t *testing.T) {
	root := core.NewSeq().SetName("r")
	root.Add(leaf("a", "video", 100), leaf("b", "video", 200))
	g := graph(t, root)
	res, err := Play(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Errorf("ideal playback violated must arcs: %v", res.MustViolations)
	}
	if res.MaxDrift != 0 {
		t.Errorf("ideal playback drifted: %v", res.MaxDrift)
	}
	if res.FinishedAt != 300*time.Millisecond {
		t.Errorf("finished at %v", res.FinishedAt)
	}
	// Trace has start+end per leaf, ordered.
	var starts, ends int
	for _, e := range res.Trace {
		switch e.Action {
		case ActionStart:
			starts++
		case ActionEnd:
			ends++
		}
	}
	if starts != 2 || ends != 2 {
		t.Errorf("trace: %d starts, %d ends\n%v", starts, ends, res)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i-1].At > res.Trace[i].At {
			t.Error("trace not time-ordered")
		}
	}
}

func TestJitterDelaysAndStretches(t *testing.T) {
	// seq(a, b) gap-free: b's device is slow, so a freeze-frames.
	root := core.NewSeq().SetName("r")
	root.Add(leaf("a", "video", 100), leaf("b", "sound", 200))
	g := graph(t, root)
	res, err := Play(g, Options{
		Jitter: ChannelJitter("sound", 50*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("must violations: %v", res.MustViolations)
	}
	b := root.FindByName("b")
	a := root.FindByName("a")
	if got := res.Actual[g.Begin(b)]; got != 150*time.Millisecond {
		t.Errorf("b started at %v, want 150ms", got)
	}
	// a stretched by 50ms (freeze-frame covering the gap).
	if got := res.Actual[g.End(a)]; got != 150*time.Millisecond {
		t.Errorf("a ended at %v, want 150ms", got)
	}
	if res.TotalStretch != 50*time.Millisecond {
		t.Errorf("stretch = %v", res.TotalStretch)
	}
	var sawFreeze, sawLate bool
	for _, e := range res.Trace {
		if e.Action == ActionFreeze && e.Node == a {
			sawFreeze = true
		}
		if e.Action == ActionLate && e.Node == b {
			sawLate = true
		}
	}
	if !sawFreeze || !sawLate {
		t.Errorf("trace missing freeze/late:\n%v", res)
	}
}

func TestHardMustWindowViolatedByJitter(t *testing.T) {
	// b must start exactly with a (hard window). A 50ms latency on b's
	// channel cannot be absorbed: a is delayed too (stall) — both slide.
	// A hard *absolute* arc from the root pins a, making the conflict real.
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 300), leaf("b", "sound", 300)
	a.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "/", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	root.Add(a, b)
	g := graph(t, root)
	res, err := Play(g, Options{Jitter: ChannelJitter("sound", 50*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success() {
		t.Fatal("hard window absorbed impossible jitter")
	}
	if len(res.MustViolations) == 0 {
		t.Error("violations not recorded")
	}
}

func TestRelaxedWindowAbsorbsJitter(t *testing.T) {
	// Same shape, but b's window is [0, 100ms]: 50ms of jitter fits.
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 300), leaf("b", "sound", 300)
	a.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "/", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(100)})
	root.Add(a, b)
	g := graph(t, root)
	res, err := Play(g, Options{Jitter: ChannelJitter("sound", 50*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("100ms window failed to absorb 50ms jitter: %v", res.MustViolations)
	}
	if res.MaxDrift != 50*time.Millisecond {
		t.Errorf("drift = %v", res.MaxDrift)
	}
}

func TestMayArcDroppedUnderJitter(t *testing.T) {
	// May arc pins label to story start (hard window), Must arc pins the
	// story to the root. Label device is slow: the May arc is sacrificed.
	root := core.NewPar().SetName("r")
	story := leaf("story", "video", 500)
	label := leaf("label", "text", 200)
	story.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "/", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	label.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.May,
		Source: "../story", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	root.Add(story, label)
	g := graph(t, root)
	res, err := Play(g, Options{
		Jitter: ChannelJitter("text", 30*time.Millisecond),
		Relax:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("must violations: %v", res.MustViolations)
	}
	if len(res.DroppedMay) != 1 {
		t.Fatalf("dropped = %v", res.DroppedMay)
	}
	// "if the label is a little late, then there is no reason for panic"
	lbl := root.FindByName("label")
	if got := res.Actual[g.Begin(lbl)]; got != 30*time.Millisecond {
		t.Errorf("label started at %v", got)
	}
}

func TestPlayScheduleKeepsThePlansVictims(t *testing.T) {
	// story is pinned to the root. note must start with story and may start
	// 100ms after it: a conflict the plan resolves by dropping the May arc.
	// label may start exactly with story, which holds until its device is
	// slow.
	root := core.NewPar().SetName("r")
	story := leaf("story", "video", 500)
	note := leaf("note", "sound", 200)
	label := leaf("label", "text", 200)
	story.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "/", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	note.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../story", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	note.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.May,
		Source: "../story", SrcEnd: core.Begin, Dest: "", Offset: units.MS(100), MaxDelay: units.MS(0)})
	label.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.May,
		Source: "../story", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	root.Add(story, note, label)
	g := graph(t, root)
	plan, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Dropped) != 1 || plan.Dropped[0].Node != note || plan.Dropped[0].Index != 1 {
		t.Fatalf("plan dropped %v, want note's May arc", plan.Dropped)
	}

	// Relax governs further drops only: without it the plan still plays,
	// the conflict it already resolved stays resolved.
	res, err := PlaySchedule(plan, Options{})
	if err != nil {
		t.Fatalf("playing a relaxed plan without Relax: %v", err)
	}
	sameArcs(t, res.DroppedMay, plan.Dropped)
	if !res.Success() || res.MaxDrift != 0 {
		t.Errorf("ideal playback of the plan: violations %v, drift %v", res.MustViolations, res.MaxDrift)
	}

	// With it, DroppedMay is the plan's list followed by the run's.
	res, err = PlaySchedule(plan, Options{Jitter: ChannelJitter("text", 30*time.Millisecond), Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	labelArc := sched.ArcRef{Node: label, Index: 0}
	sameArcs(t, res.DroppedMay, []sched.ArcRef{plan.Dropped[0], labelArc})
	if len(plan.Dropped) != 1 {
		t.Errorf("playback grew the plan's own Dropped list to %v", plan.Dropped)
	}
	if got := res.Actual[g.Begin(label)]; got != 30*time.Millisecond {
		t.Errorf("label started at %v, want 30ms", got)
	}
}

func TestUniformJitterDeterministic(t *testing.T) {
	j1 := UniformJitter(7, 100*time.Millisecond)
	j2 := UniformJitter(7, 100*time.Millisecond)
	n := leaf("x", "video", 100)
	if j1(n, "video") != j2(n, "video") {
		t.Error("same seed, different jitter")
	}
	j3 := UniformJitter(8, 100*time.Millisecond)
	// Not a hard requirement, but overwhelmingly likely:
	if j1(n, "video") == j3(n, "video") {
		t.Log("warning: different seeds produced equal jitter (possible)")
	}
	if UniformJitter(1, 0)(n, "video") != 0 {
		t.Error("zero max must disable jitter")
	}
	if got := j1(n, "video"); got < 0 || got >= 100*time.Millisecond {
		t.Errorf("jitter out of range: %v", got)
	}
}

func TestResultString(t *testing.T) {
	root := core.NewSeq().SetName("r")
	root.Add(leaf("a", "video", 100))
	g := graph(t, root)
	res, err := Play(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "playback") || !strings.Contains(s, "/a") {
		t.Errorf("String = %q", s)
	}
}

func TestSeekAnalysis(t *testing.T) {
	// seq(a[0,100], b[100,300]) with parallel cap[0,400]; arc from end of
	// a to begin of b. Seek to 200ms: a is done, b is active.
	root := core.NewPar().SetName("r")
	vseq := core.NewSeq().SetName("vseq")
	a, b := leaf("a", "video", 100), leaf("b", "video", 200)
	vseq.Add(a, b)
	cap := leaf("cap", "text", 400)
	// Arc from a.end to b.begin: at seek 200ms, source executed, dest
	// already started -> satisfied.
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.End, Dest: "", MaxDelay: units.InfiniteQuantity()})
	// Arc from a.end to cap.end: at seek 50ms, source not yet executed ->
	// valid; at 200ms source executed, dest pending -> invalid.
	cap.AddArc(core.SyncArc{DestEnd: core.End, Strict: core.May,
		Source: "../vseq/a", SrcEnd: core.End, Dest: "",
		MaxDelay: units.InfiniteQuantity()})
	root.Add(vseq, cap)
	g := graph(t, root)
	s, err := g.Solve(sched.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	early := AnalyzeSeek(s, 50*time.Millisecond)
	if len(early.Invalid()) != 0 {
		t.Errorf("at 50ms invalid arcs = %v", early.Invalid())
	}
	if len(early.Active) != 2 { // a and cap active
		t.Errorf("at 50ms active = %v", early.Active)
	}

	late := AnalyzeSeek(s, 200*time.Millisecond)
	inv := late.Invalid()
	if len(inv) != 1 || inv[0].Node.Name() != "cap" {
		t.Errorf("at 200ms invalid arcs = %v", inv)
	}
	var states []ArcState
	for _, sa := range late.Arcs {
		states = append(states, sa.State)
	}
	if len(states) != 2 {
		t.Fatalf("arc count = %d", len(states))
	}
	// b's arc satisfied, cap's invalid.
	foundSatisfied := false
	for _, st := range states {
		if st == ArcSatisfied {
			foundSatisfied = true
		}
		if st.String() == "unknown" {
			t.Error("unknown state")
		}
	}
	if !foundSatisfied {
		t.Errorf("no satisfied arc at 200ms: %v", states)
	}

	// Resumed playback with invalid arcs dropped still solves.
	if _, err := g.SolveFrom(s, nil, late.Invalid(), sched.SolveOptions{}); err != nil {
		t.Errorf("resume unsolvable: %v", err)
	}
	// With nothing invalid the resume is the plan.
	if _, err := g.SolveFrom(s, nil, early.Invalid(), sched.SolveOptions{}); err != nil {
		t.Errorf("clean resume unsolvable: %v", err)
	}
}

func TestSweepWindowVsJitter(t *testing.T) {
	// The F8 relationship: a hard window fails under jitter, a window of
	// at least the jitter bound succeeds.
	for _, window := range []int64{0, 20, 50, 100} {
		root := core.NewPar().SetName("r")
		a, b := leaf("a", "video", 300), leaf("b", "sound", 300)
		a.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
			Source: "/", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
		b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
			Source: "../a", SrcEnd: core.Begin, Dest: "",
			MaxDelay: units.MS(window)})
		root.Add(a, b)
		g := graph(t, root)
		res, err := Play(g, Options{Jitter: ChannelJitter("sound", 50*time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		wantSuccess := window >= 50
		if res.Success() != wantSuccess {
			t.Errorf("window %dms: success=%v, want %v", window, res.Success(), wantSuccess)
		}
	}
}
