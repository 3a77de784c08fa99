package core

import (
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/units"
)

// newsDocument builds a valid miniature news document with dictionaries.
func newsDocument(t *testing.T) *Document {
	t.Helper()
	root := buildNews()
	d, err := NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	d.SetChannels(newsChannels())
	sd := attr.NewStyleDict()
	sd.Define("caption-style", attr.MustList(
		attr.P("channel", attr.ID("captions")),
		attr.P("tformatting", attr.ListOf(
			attr.Named("font", attr.ID("helvetica")),
			attr.Named("size", attr.Number(12)),
		)),
	))
	d.SetStyles(sd)
	return d
}

func TestNewDocumentDecodesDictionaries(t *testing.T) {
	d := newsDocument(t)
	if d.Channels().Len() != 5 {
		t.Errorf("channels = %d", d.Channels().Len())
	}
	if d.Styles().Len() != 1 {
		t.Errorf("styles = %d", d.Styles().Len())
	}
}

func TestNewDocumentErrors(t *testing.T) {
	if _, err := NewDocument(nil); err == nil {
		t.Error("nil root accepted")
	}
	root := NewSeq()
	root.Attrs.Set("channeldict", attr.Number(7))
	if _, err := NewDocument(root); err == nil {
		t.Error("bad channeldict accepted")
	}
	root = NewSeq()
	root.Attrs.Set("styledict", attr.Number(7))
	if _, err := NewDocument(root); err == nil {
		t.Error("bad styledict accepted")
	}
}

func TestEffectiveAttrsStyleAndInheritance(t *testing.T) {
	d := newsDocument(t)
	// Add a caption leaf using the style.
	story := d.Root.FindByName("story-3")
	cap := NewImm([]byte("Paintings worth ten million...")).
		SetName("cap").
		SetAttr("style", attr.ID("caption-style"))
	story.AddChild(cap)

	eff, err := d.EffectiveAttrs(cap)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Has("style") {
		t.Error("style attribute survives expansion")
	}
	if ch, _ := eff.GetID("channel"); ch != "captions" {
		t.Errorf("style channel = %q", ch)
	}
	// Inherited file: set on the story, visible on the leaf.
	story.Attrs.Set("file", attr.String("shared.dat"))
	eff, err = d.EffectiveAttrs(cap)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := eff.GetString("file"); f != "shared.dat" {
		t.Errorf("inherited file = %q", f)
	}
}

func TestEffectiveAttrsAncestorStyleInherits(t *testing.T) {
	d := newsDocument(t)
	// A style that sets an inheritable attribute, applied to a composite:
	// the children must inherit the expanded attribute.
	sd := d.Styles()
	sd.Define("dutch-audio", attr.MustList(attr.P("channel", attr.ID("sound"))))
	d.SetStyles(sd)
	story := d.Root.FindByName("story-3")
	story.Attrs.Set("style", attr.ID("dutch-audio"))
	story.Attrs.Del("channel")
	leaf := d.Root.FindByName("intro")
	leaf.Attrs.Del("channel")
	eff, err := d.EffectiveAttrs(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if ch, _ := eff.GetID("channel"); ch != "sound" {
		t.Errorf("ancestor style channel not inherited: %q", ch)
	}
}

func TestChannelOf(t *testing.T) {
	d := newsDocument(t)
	voice := d.Root.FindByName("voice")
	c, err := d.ChannelOf(voice)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "sound" || c.Medium != MediumAudio {
		t.Errorf("ChannelOf(voice) = %+v", c)
	}
	// Node with no channel anywhere.
	orphan := NewExt().SetName("orphan").SetAttr("file", attr.String("x"))
	d.Root.AddChild(orphan)
	if _, err := d.ChannelOf(orphan); err == nil {
		t.Error("channel-less node resolved")
	}
	// Node naming an undefined channel.
	ghost := NewExt().SetName("ghost").
		SetAttr("channel", attr.ID("smell")).
		SetAttr("file", attr.String("x"))
	d.Root.AddChild(ghost)
	if _, err := d.ChannelOf(ghost); err == nil ||
		!strings.Contains(err.Error(), "undefined channel") {
		t.Errorf("undefined channel error = %v", err)
	}
}

func TestFileOf(t *testing.T) {
	d := newsDocument(t)
	intro := d.Root.FindByName("intro")
	if f, ok := d.FileOf(intro); !ok || f != "anchor.vid" {
		t.Errorf("FileOf(intro) = %q, %v", f, ok)
	}
	label := d.Root.FindByName("label")
	if _, ok := d.FileOf(label); ok {
		t.Error("imm node reported a file")
	}
	// ID-valued file also accepted.
	intro.Attrs.Set("file", attr.ID("anchor-2"))
	if f, _ := d.FileOf(intro); f != "anchor-2" {
		t.Errorf("ID file = %q", f)
	}
}

func TestDurationOf(t *testing.T) {
	d := newsDocument(t)
	intro := d.Root.FindByName("intro")
	if _, ok := d.DurationOf(intro); ok {
		t.Error("leaf without duration reported one")
	}
	intro.Attrs.Set("duration", attr.Quantity(units.Q(250, units.Frames)))
	q, ok := d.DurationOf(intro)
	if !ok || q != units.Q(250, units.Frames) {
		t.Errorf("DurationOf = %v, %v", q, ok)
	}
	// Composites never report durations.
	if _, ok := d.DurationOf(d.Root); ok {
		t.Error("composite reported a duration")
	}
}

// TestResolvedChannelRates: a node's resolution carries its channel's unit
// rates, and a channel-less node's converts time alone.
func TestResolvedChannelRates(t *testing.T) {
	d := newsDocument(t)
	orphan := NewImm([]byte("x"))
	d.Root.AddChild(orphan)
	rates := map[*Node]units.Rates{}
	for _, r := range Resolve(d) {
		if r.Channel != nil {
			rates[r.Node] = r.Channel.Rates
		}
	}
	dur, err := units.NewResolver(rates[d.Root.FindByName("intro")]).Duration(units.Q(25, units.Frames))
	if err != nil || dur.Seconds() != 1 {
		t.Errorf("video rates: %v, %v", dur, err)
	}
	if _, err := units.NewResolver(rates[orphan]).Duration(units.MS(5)); err != nil {
		t.Errorf("channel-less rates: %v", err)
	}
}

func TestStats(t *testing.T) {
	d := newsDocument(t)
	d.Root.FindByName("label").AddArc(SyncArc{Source: "..", Dest: ""})
	s := d.Stats()
	if s.Nodes != 7 || s.Ext != 3 || s.Imm != 1 || s.Seq != 2 || s.Par != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Channels != 5 || s.Styles != 1 {
		t.Errorf("dict stats = %+v", s)
	}
	if s.Arcs != 1 {
		t.Errorf("arcs = %d", s.Arcs)
	}
	if s.ImmBytes == 0 || s.MaxDepth != 2 || s.LeafCount != 4 {
		t.Errorf("misc stats = %+v", s)
	}
}

func TestDocumentClone(t *testing.T) {
	d := newsDocument(t)
	c := d.Clone()
	c.Root.FindByName("story-3").SetName("other")
	if d.Root.FindByName("story-3") == nil {
		t.Error("clone rename leaked into original")
	}
	if c.Channels().Len() != d.Channels().Len() {
		t.Error("clone lost channels")
	}
}

func TestRefreshAfterEdit(t *testing.T) {
	d := newsDocument(t)
	cd := NewChannelDict()
	cd.Define(Channel{Name: "only", Medium: MediumText})
	d.Root.Attrs.Set("channeldict", cd.DictValue())
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	if d.Channels().Len() != 1 {
		t.Errorf("Refresh did not re-decode: %d channels", d.Channels().Len())
	}
}

// TestTrimAndCutChanges: a trim drops the records and keeps the
// generation; ChangesSince below the trimmed point answers one
// ChangeGlobal; a cut takes back the records after a generation.
func TestTrimAndCutChanges(t *testing.T) {
	d, err := NewDocument(NewSeq().Add(NewImm([]byte("a")).SetName("a")))
	if err != nil {
		t.Fatal(err)
	}
	a := d.Root.Child(0)
	d.NoteChange(Change{Kind: ChangeAttr, Node: a, Attr: "duration"})
	gen := d.Generation()
	d.TrimChanges()
	if d.Generation() != gen || d.ChangesSince(gen) != nil {
		t.Fatalf("a trim moved the generation %d -> %d or kept records", gen, d.Generation())
	}
	if got := d.ChangesSince(gen - 1); len(got) != 1 || got[0].Kind != ChangeGlobal {
		t.Fatalf("ChangesSince below the trim = %v, want one global change", got)
	}
	d.NoteChange(Change{Kind: ChangeArcs, Node: a})
	d.NoteChange(Change{Kind: ChangeRename, Node: a})
	if got := d.ChangesSince(gen); len(got) != 2 || got[0].Kind != ChangeArcs || d.Generation() != gen+2 {
		t.Fatalf("after the trim: generation %d, ChangesSince = %v", d.Generation(), got)
	}
	d.CutChanges(gen + 1)
	if got := d.ChangesSince(gen); d.Generation() != gen+1 || len(got) != 1 || got[0].Kind != ChangeArcs {
		t.Fatalf("after the cut: generation %d, ChangesSince = %v", d.Generation(), got)
	}
}
