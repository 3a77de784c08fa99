package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/newsdoc"
	"repro/internal/player"
	"repro/internal/present"
)

func newsConfig() Config {
	return Config{
		Profile:  filter.Workstation1991,
		Screen:   present.Screen{W: 1152, H: 900},
		Speakers: 2,
	}
}

func TestRunEndToEnd(t *testing.T) {
	doc, store, err := newsdoc.Build(newsdoc.Config{Stories: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), doc, store, newsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Schedule == nil || out.Schedule.Makespan() == 0 {
		t.Error("no schedule")
	}
	if out.Presentation == nil || len(out.Presentation.Placements) != 5 {
		t.Errorf("presentation = %+v", out.Presentation)
	}
	if out.FilterMap == nil || !out.FilterMap.Supportable() {
		t.Errorf("workstation cannot support news:\n%s", out.FilterMap)
	}
	if out.Filtered == nil || out.Filtered.Len() == 0 {
		t.Error("no filtered store")
	}
	if out.Playback == nil || !out.Playback.Success() {
		t.Error("playback failed")
	}
	for name, view := range map[string]string{
		"tree": out.TreeView, "timeline": out.TimelineView,
		"toc": out.TOCView, "arcs": out.ArcView,
	} {
		if view == "" {
			t.Errorf("%s view empty", name)
		}
	}
	sum := out.Summary()
	for _, want := range []string{"schedule", "filter", "playback"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestRunWithJitter(t *testing.T) {
	doc, store, err := newsdoc.Build(newsdoc.Config{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := newsConfig()
	cfg.Jitter = player.UniformJitter(11, 30*time.Millisecond)
	out, err := Run(context.Background(), doc, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Playback.Success() {
		t.Errorf("jittered playback violated musts: %v", out.Playback.MustViolations)
	}
}

func TestRunRejectsInvalidDocument(t *testing.T) {
	doc, store, err := newsdoc.Build(newsdoc.Config{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Break it: undefined channel.
	doc.Root.FindByName("voice").Attrs.Set("channel", attr.ID("ether"))
	if _, err := Run(context.Background(), doc, store, newsConfig()); err == nil {
		t.Error("invalid document ran")
	}
}

// TestRunReportsUnsupportable: an environment that cannot support the
// document completes the run and says so in the filter map.
func TestRunReportsUnsupportable(t *testing.T) {
	doc, store, err := newsdoc.Build(newsdoc.Config{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := newsConfig()
	cfg.Profile = filter.TextTerminal
	out, err := Run(context.Background(), doc, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.FilterMap.Supportable() {
		t.Error("terminal claims support")
	}
}

func TestTimelineResolutionBuckets(t *testing.T) {
	cases := []struct {
		span time.Duration
		want time.Duration
	}{
		{time.Second, 100 * time.Millisecond},
		{10 * time.Second, 500 * time.Millisecond},
		{time.Minute, 2 * time.Second},
		{10 * time.Minute, 15 * time.Second},
	}
	for _, c := range cases {
		if got := timelineResolution(c.span); got != c.want {
			t.Errorf("resolution(%v) = %v, want %v", c.span, got, c.want)
		}
	}
}

func TestRunDefaultDurationLeaves(t *testing.T) {
	// A document whose leaves carry no durations still flows through via
	// DefaultLeafDuration.
	root := core.NewSeq().SetName("r")
	root.Add(
		core.NewImm([]byte("one")).SetName("a").SetAttr("channel", attr.ID("labels")),
		core.NewImm([]byte("two")).SetName("b").SetAttr("channel", attr.ID("labels")),
	)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	d.SetChannels(newsdoc.Channels())
	out, err := Run(context.Background(), d, nil, Config{
		Profile:  filter.Workstation1991,
		Screen:   present.Screen{W: 640, H: 480},
		Speakers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schedule.Makespan() != time.Second {
		t.Errorf("makespan = %v, want 1s (2 × 500ms default)", out.Schedule.Makespan())
	}
}

func TestRunJudgesBandwidthOnThePlayedPlan(t *testing.T) {
	// Four 128 KiB leaves with no durations. Over the played plan's 2s
	// makespan they need 256 KiB/s, inside the laptop's 512 KiB/s; over a
	// plan with 100ms leaves they would need 1.25 MiB/s.
	const leafBytes = 128 << 10
	root := core.NewSeq().SetName("r")
	for _, name := range []string{"a", "b", "c", "d"} {
		root.AddChild(core.NewImm(make([]byte, leafBytes)).SetName(name).
			SetAttr("channel", attr.ID("labels")))
	}
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	d.SetChannels(newsdoc.Channels())
	cfg := newsConfig()
	cfg.Profile = filter.Laptop1991
	out, err := Run(context.Background(), d, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := out.Schedule.Makespan()
	if want := int64(4*leafBytes) * int64(time.Second) / int64(span); out.FilterMap.BandwidthNeeded != want {
		t.Errorf("BandwidthNeeded = %d, want %d (bytes over the %v plan)", out.FilterMap.BandwidthNeeded, want, span)
	}
	if !out.FilterMap.BandwidthOK || !out.FilterMap.Supportable() {
		t.Errorf("laptop refuses 256 KiB/s:\n%s", out.FilterMap)
	}
	standalone, err := filter.Evaluate(d, nil, filter.Laptop1991)
	if err != nil {
		t.Fatal(err)
	}
	if standalone.BandwidthNeeded != out.FilterMap.BandwidthNeeded {
		t.Errorf("standalone verdict needs %d B/s, the pipeline's %d", standalone.BandwidthNeeded, out.FilterMap.BandwidthNeeded)
	}
}
