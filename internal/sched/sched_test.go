package sched

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/units"
)

// doc builds a Document and fails the test on error.
func doc(t testing.TB, root *core.Node) *core.Document {
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

// leaf builds an ext leaf with a millisecond duration on a channel.
func leaf(name, channel string, ms int64) *core.Node {
	return core.NewExt().SetName(name).
		SetAttr("channel", attr.ID(channel)).
		SetAttr("file", attr.String(name+".dat")).
		SetAttr("duration", attr.Quantity(units.MS(ms)))
}

func solve(t *testing.T, d *core.Document, opts Options, sopts SolveOptions) *Schedule {
	t.Helper()
	g, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sopts)
	if err != nil {
		t.Fatal(err)
	}
	if viol := g.Verify(s.Times(), nil, s.Dropped); len(viol) != 0 {
		t.Fatalf("schedule violates its own constraints: %v", viol)
	}
	return s
}

func TestSeqSchedulesSequentially(t *testing.T) {
	root := core.NewSeq().SetName("r")
	a, b, c := leaf("a", "video", 100), leaf("b", "video", 200), leaf("c", "video", 50)
	root.Add(a, b, c)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})

	if s.StartOf(a) != 0 || s.EndOf(a) != 100*time.Millisecond {
		t.Errorf("a: [%v, %v]", s.StartOf(a), s.EndOf(a))
	}
	if s.StartOf(b) != 100*time.Millisecond || s.EndOf(b) != 300*time.Millisecond {
		t.Errorf("b: [%v, %v]", s.StartOf(b), s.EndOf(b))
	}
	if s.StartOf(c) != 300*time.Millisecond || s.EndOf(c) != 350*time.Millisecond {
		t.Errorf("c: [%v, %v]", s.StartOf(c), s.EndOf(c))
	}
	if s.EndOf(root) != 350*time.Millisecond {
		t.Errorf("seq parent end = %v", s.EndOf(root))
	}
	if s.Makespan() != 350*time.Millisecond {
		t.Errorf("makespan = %v", s.Makespan())
	}
}

func TestParWaitsForSlowest(t *testing.T) {
	root := core.NewPar().SetName("r")
	fast, slow := leaf("fast", "video", 100), leaf("slow", "sound", 500)
	root.Add(fast, slow)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})

	if s.StartOf(fast) != 0 || s.StartOf(slow) != 0 {
		t.Errorf("par children start: %v, %v", s.StartOf(fast), s.StartOf(slow))
	}
	// "start the successor when the slowest parallel node finishes"
	if s.EndOf(root) != 500*time.Millisecond {
		t.Errorf("par end = %v, want 500ms", s.EndOf(root))
	}
}

func TestNestedStructure(t *testing.T) {
	// par( seq(a, b), c ) with c longer than a+b.
	root := core.NewPar().SetName("r")
	s1 := core.NewSeq().SetName("s1")
	a, b := leaf("a", "video", 100), leaf("b", "video", 100)
	s1.Add(a, b)
	c := leaf("c", "sound", 900)
	root.Add(s1, c)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})

	if s.EndOf(s1) != 200*time.Millisecond {
		t.Errorf("inner seq end = %v", s.EndOf(s1))
	}
	if s.EndOf(root) != 900*time.Millisecond {
		t.Errorf("outer par end = %v", s.EndOf(root))
	}
}

func TestFrameDurationsUseChannelRates(t *testing.T) {
	root := core.NewSeq().SetName("r")
	v := core.NewExt().SetName("v").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("v.vid")).
		SetAttr("duration", attr.Quantity(units.Q(50, units.Frames))) // 2s at 25fps
	root.AddChild(v)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})
	if s.EndOf(v) != 2*time.Second {
		t.Errorf("50fr at 25fps = %v, want 2s", s.EndOf(v))
	}
}

func TestOffsetArc(t *testing.T) {
	// Graphic starts 40ms after the audio begins (the paper's offset
	// synchronization between the graphic channel and the audio portion).
	root := core.NewPar().SetName("r")
	audio := leaf("audio", "sound", 1000)
	graphic := leaf("graphic", "text", 300)
	graphic.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.Must,
		Source: "../audio", SrcEnd: core.Begin,
		Offset: units.MS(40), Dest: "",
	})
	root.Add(audio, graphic)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})
	if s.StartOf(graphic) != 40*time.Millisecond {
		t.Errorf("graphic start = %v, want 40ms", s.StartOf(graphic))
	}
}

func TestEndToBeginArcForcesStretch(t *testing.T) {
	// seq(video1, video2) with caption in parallel; an arc from the end of
	// the caption to the begin of video2 means "a new video sequence may
	// not start until the caption text is over" — video1 must freeze-frame.
	root := core.NewPar().SetName("r")
	vseq := core.NewSeq().SetName("vseq")
	v1, v2 := leaf("v1", "video", 100), leaf("v2", "video", 100)
	vseq.Add(v1, v2)
	cap := leaf("cap", "text", 400)
	v2.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.Must,
		Source: "../../cap", SrcEnd: core.End, Dest: "",
		MaxDelay: units.InfiniteQuantity(),
	})
	root.Add(vseq, cap)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})

	if s.StartOf(v2) != 400*time.Millisecond {
		t.Errorf("v2 start = %v, want 400ms", s.StartOf(v2))
	}
	// v1 stretched from 100ms to 400ms: 300ms of freeze-frame.
	if got := s.StretchOf(v1, nil); got != 300*time.Millisecond {
		t.Errorf("v1 stretch = %v, want 300ms", got)
	}
	if got := s.StretchOf(v2, nil); got != 0 {
		t.Errorf("v2 stretch = %v, want 0", got)
	}
}

func TestRigidLeavesConflict(t *testing.T) {
	// Same shape as above, but rigid leaves: v1 cannot stretch, so the
	// constraint set is unsatisfiable (conflict case 1).
	root := core.NewPar().SetName("r")
	vseq := core.NewSeq().SetName("vseq")
	v1, v2 := leaf("v1", "video", 100), leaf("v2", "video", 100)
	vseq.Add(v1, v2)
	cap := leaf("cap", "text", 400)
	// v1 must start together with the caption...
	v1.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.Must,
		Source: "../../cap", SrcEnd: core.Begin, Dest: "",
		MaxDelay: units.MS(0),
	})
	// ...and v2 may not start until the caption is over.
	v2.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.Must,
		Source: "../../cap", SrcEnd: core.End, Dest: "",
		MaxDelay: units.MS(0),
	})
	root.Add(vseq, cap)

	g, err := Build(doc(t, root), Options{RigidLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Solve(SolveOptions{})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if len(ce.Cycle) == 0 {
		t.Error("conflict cycle empty")
	}
	if !strings.Contains(ce.Error(), "unsatisfiable") {
		t.Errorf("conflict message: %v", ce)
	}
	// But the hard upper bound itself is a must arc: MustArcs reports it.
	if len(ce.MustArcs()) == 0 {
		t.Error("must arcs on cycle not reported")
	}
}

func TestMayArcRelaxation(t *testing.T) {
	// Two contradictory hard arcs; one is May and gets dropped.
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 100), leaf("b", "sound", 100)
	// Must: b begins exactly 200ms after a begins.
	b.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Offset: units.MS(200), Dest: "",
	})
	// May: b begins exactly when a begins (contradiction).
	b.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.May,
		Source: "../a", SrcEnd: core.Begin, Dest: "",
	})
	root.Add(a, b)

	g, err := Build(doc(t, root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Without relaxation: conflict.
	if _, err := g.Solve(SolveOptions{}); err == nil {
		t.Fatal("contradiction not detected")
	}
	// With relaxation: the May arc is dropped, the Must arc honoured.
	s, err := g.Solve(SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dropped) != 1 || s.Dropped[0].Arc.Strict != core.May {
		t.Errorf("dropped = %v", s.Dropped)
	}
	if s.StartOf(b)-s.StartOf(a) != 200*time.Millisecond {
		t.Errorf("must arc not honoured: %v vs %v", s.StartOf(b), s.StartOf(a))
	}
}

func TestMustConflictNotRelaxable(t *testing.T) {
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 100), leaf("b", "sound", 100)
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Offset: units.MS(200), Dest: ""})
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Dest: ""})
	root.Add(a, b)
	g, err := Build(doc(t, root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ce *ConflictError
	if _, err := g.Solve(SolveOptions{Relax: true}); !errors.As(err, &ce) {
		t.Fatalf("must-must conflict resolved: %v", err)
	}
}

func TestNegativeMinDelayAllowsEarlyStart(t *testing.T) {
	// δ = -50ms: the destination may start up to 50ms before the reference.
	root := core.NewPar().SetName("r")
	a := leaf("a", "video", 500)
	b := leaf("b", "sound", 100)
	b.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.End, Dest: "",
		MinDelay: units.MS(-50), MaxDelay: units.MS(0),
	})
	root.Add(a, b)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})
	// Earliest schedule: b starts at end(a) + δ = 500 - 50 = 450ms.
	if s.StartOf(b) != 450*time.Millisecond {
		t.Errorf("b start = %v, want 450ms", s.StartOf(b))
	}
}

func TestDelayWindowBounds(t *testing.T) {
	// Window [0, 100ms]: earliest schedule picks the lower edge.
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 300), leaf("b", "sound", 100)
	b.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Dest: "",
		MinDelay: units.MS(0), MaxDelay: units.MS(100),
	})
	root.Add(a, b)
	s := solve(t, doc(t, root), Options{}, SolveOptions{})
	if s.StartOf(b) != 0 {
		t.Errorf("b start = %v, want 0 (earliest within window)", s.StartOf(b))
	}
}

func TestDefaultLeafDuration(t *testing.T) {
	root := core.NewSeq().SetName("r")
	a := core.NewImm([]byte("x")).SetName("a").SetAttr("channel", attr.ID("text"))
	b := core.NewImm([]byte("y")).SetName("b").SetAttr("channel", attr.ID("text"))
	root.Add(a, b)
	s := solve(t, doc(t, root), Options{DefaultLeafDuration: 250 * time.Millisecond}, SolveOptions{})
	if s.StartOf(b) != 250*time.Millisecond {
		t.Errorf("default duration not applied: b starts %v", s.StartOf(b))
	}
}

func TestCustomDurationSource(t *testing.T) {
	root := core.NewSeq().SetName("r")
	a, b := leaf("a", "video", 100), leaf("b", "video", 100)
	root.Add(a, b)
	s := solve(t, doc(t, root), Options{
		DurationOf: func(n *core.Node) (time.Duration, bool) {
			return time.Second, true // override everything to 1s
		},
	}, SolveOptions{})
	if s.StartOf(b) != time.Second {
		t.Errorf("custom duration ignored: %v", s.StartOf(b))
	}
}

func TestChannelTimelineAndConflicts(t *testing.T) {
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 300), leaf("b", "video", 300)
	root.Add(a, b) // both on the video channel, in parallel: overlap
	s := solve(t, doc(t, root), Options{}, SolveOptions{})
	tl := s.ChannelTimeline()
	if len(tl["video"]) != 2 {
		t.Fatalf("video timeline = %v", tl["video"])
	}
	overlaps := s.ChannelConflicts()
	if len(overlaps) != 1 || overlaps[0].Channel != "video" {
		t.Errorf("overlaps = %v", overlaps)
	}
	if overlaps[0].String() == "" {
		t.Error("empty overlap description")
	}

	// Sequential placement removes the overlap.
	root2 := core.NewSeq().SetName("r")
	root2.Add(leaf("a", "video", 300), leaf("b", "video", 300))
	s2 := solve(t, doc(t, root2), Options{}, SolveOptions{})
	if got := s2.ChannelConflicts(); len(got) != 0 {
		t.Errorf("sequential doc has overlaps: %v", got)
	}
}

func TestBuildErrors(t *testing.T) {
	// Unresolvable arc path.
	root := core.NewPar().SetName("r")
	a := leaf("a", "video", 100)
	a.AddArc(core.SyncArc{Source: "../ghost", Dest: ""})
	root.AddChild(a)
	if _, err := Build(doc(t, root), Options{}); err == nil {
		t.Error("unresolvable arc accepted")
	}

	// Invalid arc fields.
	root2 := core.NewPar().SetName("r")
	b := leaf("b", "video", 100)
	b.AddArc(core.SyncArc{Source: "", Dest: "", MinDelay: units.MS(10)})
	root2.AddChild(b)
	if _, err := Build(doc(t, root2), Options{}); err == nil {
		t.Error("invalid arc fields accepted")
	}

	// Offset in frames on a channel without a frame rate.
	root3 := core.NewPar().SetName("r")
	c := leaf("c", "text", 100)
	d2 := leaf("d", "text", 100)
	d2.AddArc(core.SyncArc{Source: "../c", Dest: "",
		Offset: units.Q(10, units.Frames)})
	root3.Add(c, d2)
	if _, err := Build(doc(t, root3), Options{}); err == nil {
		t.Error("unconvertible offset accepted")
	}
}

func TestGraphAccessors(t *testing.T) {
	root := core.NewSeq().SetName("r")
	a := leaf("a", "video", 100)
	a.AddArc(core.SyncArc{Source: "..", Dest: ""})
	root.AddChild(a)
	d := doc(t, root)
	g, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEvents() != 4 {
		t.Errorf("NumEvents = %d", g.NumEvents())
	}
	if g.Doc() != d {
		t.Error("Doc() mismatch")
	}
	if len(g.Arcs()) != 1 {
		t.Errorf("Arcs = %v", g.Arcs())
	}
	ev := g.Event(g.Begin(a))
	if ev.Node != a || ev.End != core.Begin {
		t.Errorf("Event = %+v", ev)
	}
	if !strings.Contains(ev.String(), "/a.begin") {
		t.Errorf("Event.String = %q", ev.String())
	}
	if !strings.Contains(g.String(), "events") {
		t.Errorf("Graph.String = %q", g.String())
	}
	if s, err := g.Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(s.String(), "makespan") {
		t.Errorf("Schedule.String = %q", s.String())
	}
}

// Property: on random well-formed documents the solver always produces a
// schedule satisfying every constraint, with non-negative times and
// monotone containment.
func TestRandomDocumentsScheduleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		root := genSchedTree(rng, 0)
		wrapped := core.NewSeq().SetName("r")
		wrapped.AddChild(root)
		d := doc(t, wrapped)
		g, err := Build(d, Options{DefaultLeafDuration: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		s, err := g.Solve(SolveOptions{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if viol := g.Verify(s.Times(), nil, nil); len(viol) != 0 {
			t.Fatalf("iter %d: violations %v", iter, viol)
		}
		wrapped.Walk(func(n *core.Node) bool {
			if s.StartOf(n) < 0 {
				t.Errorf("iter %d: %s starts at %v", iter, n.PathString(), s.StartOf(n))
			}
			if s.EndOf(n) < s.StartOf(n) {
				t.Errorf("iter %d: %s ends before start", iter, n.PathString())
			}
			if p := n.Parent(); p != nil {
				if s.StartOf(n) < s.StartOf(p) {
					t.Errorf("iter %d: %s starts before parent", iter, n.PathString())
				}
				if s.EndOf(n) > s.EndOf(p) && p.Type == core.Par {
					t.Errorf("iter %d: %s outlives par parent", iter, n.PathString())
				}
			}
			return true
		})
	}
}

var channelsForGen = []string{"video", "sound", "text"}

func genSchedTree(rng *rand.Rand, depth int) *core.Node {
	name := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
	if depth >= 3 || rng.Intn(3) == 0 {
		return leaf(name, channelsForGen[rng.Intn(3)], int64(rng.Intn(500)))
	}
	var n *core.Node
	if rng.Intn(2) == 0 {
		n = core.NewSeq()
	} else {
		n = core.NewPar()
	}
	n.SetName(name)
	kids := 1 + rng.Intn(3)
	for i := 0; i < kids; i++ {
		c := genSchedTree(rng, depth+1)
		c.SetName(c.Name() + string(rune('0'+i))) // ensure sibling-unique names
		n.AddChild(c)
	}
	return n
}
