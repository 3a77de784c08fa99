package render

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/units"
)

// newsFixture builds a small news document with channels and a schedule.
func newsFixture(t *testing.T) (*core.Document, *sched.Schedule) {
	t.Helper()
	root := core.NewPar().SetName("news")
	story := core.NewSeq().SetName("story-3")
	intro := core.NewExt().SetName("intro").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("anchor.vid")).
		SetAttr("duration", attr.Quantity(units.MS(400)))
	report := core.NewExt().SetName("report").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("scene.vid")).
		SetAttr("duration", attr.Quantity(units.MS(600)))
	story.Add(intro, report)
	voice := core.NewExt().SetName("voice").
		SetAttr("channel", attr.ID("sound")).
		SetAttr("file", attr.String("voice.aud")).
		SetAttr("duration", attr.Quantity(units.MS(1000)))
	label := core.NewImm([]byte("Story 3. Paintings")).SetName("label").
		SetAttr("channel", attr.ID("labels")).
		SetAttr("duration", attr.Quantity(units.MS(300)))
	label.AddArc(core.SyncArc{
		DestEnd: core.Begin, Strict: core.May,
		Source: "../story-3", SrcEnd: core.Begin,
		Offset: units.MS(100), Dest: "",
		MaxDelay: units.MS(50),
	})
	root.Add(story, voice, label)

	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo,
		Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "sound", Medium: core.MediumAudio,
		Rates: units.Rates{SampleRate: 8000}})
	cd.Define(core.Channel{Name: "labels", Medium: core.MediumText})
	d.SetChannels(cd)

	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sched.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestTree(t *testing.T) {
	d, _ := newsFixture(t)
	out := Tree(d)
	for _, want := range []string{"par news", "seq story-3", "ext intro",
		"channel=video", "file=anchor.vid", "imm label", "18 bytes", "1 arcs"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	// Indentation encodes depth.
	if !strings.Contains(out, "  seq story-3") {
		t.Errorf("story not indented:\n%s", out)
	}
}

func TestTOC(t *testing.T) {
	_, s := newsFixture(t)
	lines := strings.Split(strings.TrimSuffix(TOCText(s), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("TOC rows = %d", len(lines))
	}
	// Rows are indented by depth: the root first, unindented.
	if !strings.HasPrefix(lines[0], "news ") {
		t.Errorf("first row = %q", lines[0])
	}
	for _, want := range []string{"  story-3", "    intro", "  voice"} {
		if !strings.Contains(TOCText(s), "\n"+want+" ") {
			t.Errorf("TOC text missing row %q:\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

func TestArcTable(t *testing.T) {
	d, _ := newsFixture(t)
	out := ArcTable(d)
	for _, want := range []string{"type", "source", "offset", "destination",
		"min_delay", "max_delay", "(begin may)", "100ms", "50ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("arc table missing %q:\n%s", want, out)
		}
	}
}

func TestArcTableInfinity(t *testing.T) {
	root := core.NewSeq().SetName("r")
	a := core.NewExt().SetName("a").SetAttr("file", attr.String("x"))
	a.AddArc(core.SyncArc{Source: "..", Dest: "", MaxDelay: units.InfiniteQuantity()})
	root.AddChild(a)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	if out := ArcTable(d); !strings.Contains(out, "inf") {
		t.Errorf("infinite delay not rendered:\n%s", out)
	}
}

func TestTimeline(t *testing.T) {
	_, s := newsFixture(t)
	out := Timeline(s, TimelineOptions{Resolution: 100 * time.Millisecond})
	// Channel headers in dictionary order.
	head := strings.SplitN(out, "\n", 2)[0]
	vi, si, li := strings.Index(head, "video"), strings.Index(head, "sound"), strings.Index(head, "labels")
	if vi < 0 || si < 0 || li < 0 || !(vi < si && si < li) {
		t.Errorf("channel header order wrong: %q", head)
	}
	for _, want := range []string{"+intro", "+report", "+voice", "+label"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Continuation bars exist for the long voice block.
	if !strings.Contains(out, "|") {
		t.Errorf("no continuation bars:\n%s", out)
	}
}

func TestTimelineDefaultsAndClamps(t *testing.T) {
	_, s := newsFixture(t)
	out := Timeline(s, TimelineOptions{})
	if out == "" {
		t.Fatal("empty timeline with defaults")
	}
	tiny := Timeline(s, TimelineOptions{Resolution: time.Millisecond, MaxRows: 5})
	if rows := strings.Count(tiny, "\n"); rows > 8 {
		t.Errorf("MaxRows not honoured: %d rows", rows)
	}
}

func TestHelpers(t *testing.T) {
	if clip("abcdef", 3) != "abc" || clip("ab", 5) != "ab" || clip("x", 0) != "" {
		t.Error("clip broken")
	}
	// The padding helpers count runes, as fmt's widths do.
	for _, s := range []string{"", "ab", "1.5µs", "twenty-five-bytes-exactly", "ünïcödé"} {
		for _, w := range []int{0, 3, 10, 24} {
			if got, want := string(padRight(nil, s, w)), fmt.Sprintf("%-*s", w, s); got != want {
				t.Errorf("padRight(%q, %d) = %q, want %q", s, w, got, want)
			}
			if got, want := string(padLeft(nil, s, w)), fmt.Sprintf("%*s", w, s); got != want {
				t.Errorf("padLeft(%q, %d) = %q, want %q", s, w, got, want)
			}
		}
	}
}

func TestTimelineUnassignedChannel(t *testing.T) {
	root := core.NewSeq().SetName("r")
	orphan := core.NewImm([]byte("x")).SetName("orphan").
		SetAttr("duration", attr.Quantity(units.MS(100)))
	root.AddChild(orphan)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sched.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := Timeline(s, TimelineOptions{})
	if !strings.Contains(out, "(unassign") {
		t.Errorf("unassigned channel column missing:\n%s", out)
	}
}
