package core

import (
	"reflect"
	"testing"

	"repro/internal/attr"
	"repro/internal/units"
)

func newsChannels() *ChannelDict {
	d := NewChannelDict()
	d.Define(Channel{Name: "video", Medium: MediumVideo, Rates: units.Rates{FrameRate: 25}})
	d.Define(Channel{Name: "sound", Medium: MediumAudio, Rates: units.Rates{SampleRate: 8000}})
	d.Define(Channel{Name: "graphic", Medium: MediumImage})
	d.Define(Channel{Name: "captions", Medium: MediumText})
	d.Define(Channel{Name: "labels", Medium: MediumText})
	return d
}

func TestMediumParsing(t *testing.T) {
	for _, m := range []Medium{MediumText, MediumAudio, MediumVideo, MediumImage, MediumGraphic} {
		got, err := ParseMedium(m.String())
		if err != nil || got != m {
			t.Errorf("medium %v round trip: %v, %v", m, got, err)
		}
	}
	if _, err := ParseMedium("smellovision"); err == nil {
		t.Error("unknown medium accepted")
	}
}

func TestChannelDictBasics(t *testing.T) {
	d := newsChannels()
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	want := []string{"video", "sound", "graphic", "captions", "labels"}
	if got := d.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v", got)
	}
	c, ok := d.Lookup("video")
	if !ok || c.Medium != MediumVideo || c.Rates.FrameRate != 25 {
		t.Errorf("video lookup = %+v, %v", c, ok)
	}
	if _, ok := d.Lookup("smell"); ok {
		t.Error("phantom channel found")
	}
}

func TestChannelRedefineKeepsOrder(t *testing.T) {
	d := newsChannels()
	d.Define(Channel{Name: "video", Medium: MediumVideo, Rates: units.Rates{FrameRate: 30}})
	if d.Len() != 5 {
		t.Errorf("redefine changed Len to %d", d.Len())
	}
	if d.Names()[0] != "video" {
		t.Error("redefine moved channel")
	}
	c, _ := d.Lookup("video")
	if c.Rates.FrameRate != 30 {
		t.Error("redefine did not take effect")
	}
}

func TestChannelDictRoundTrip(t *testing.T) {
	d := newsChannels()
	extra, _ := d.Lookup("captions")
	extra.Attrs.Set("lang", attr.ID("en"))
	d.Define(extra)

	v := d.DictValue()
	back, err := ParseChannelDict(v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names(), d.Names()) {
		t.Errorf("names: %v vs %v", back.Names(), d.Names())
	}
	for _, name := range d.Names() {
		a, _ := d.Lookup(name)
		b, _ := back.Lookup(name)
		if a.Medium != b.Medium || a.Rates != b.Rates || !a.Attrs.Equal(b.Attrs) {
			t.Errorf("channel %q round trip: %+v vs %+v", name, a, b)
		}
	}
}

func TestParseChannelErrors(t *testing.T) {
	cases := map[string]attr.Value{
		"not-list":       attr.Number(3),
		"no-medium":      attr.ListOf(attr.Named("framerate", attr.Number(25))),
		"bad-medium":     attr.ListOf(attr.Named("medium", attr.ID("smell"))),
		"medium-kind":    attr.ListOf(attr.Named("medium", attr.String("video"))),
		"bad-framerate":  attr.ListOf(attr.Named("medium", attr.ID("video")), attr.Named("framerate", attr.Number(0))),
		"bad-samplerate": attr.ListOf(attr.Named("medium", attr.ID("audio")), attr.Named("samplerate", attr.ID("x"))),
		"bad-byterate":   attr.ListOf(attr.Named("medium", attr.ID("text")), attr.Named("byterate", attr.Number(-1))),
		"unnamed-field":  attr.ListOf(attr.Named("medium", attr.ID("text")), attr.Item{Value: attr.Number(1)}),
		"dup-extra": attr.ListOf(attr.Named("medium", attr.ID("text")),
			attr.Named("lang", attr.ID("en")), attr.Named("lang", attr.ID("nl"))),
	}
	for name, v := range cases {
		if _, err := ParseChannel("c", v); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseChannelDictErrors(t *testing.T) {
	cases := map[string]attr.Value{
		"not-list": attr.ID("x"),
		"unnamed":  attr.ListOf(attr.Item{Value: attr.Number(1)}),
		"dup": attr.ListOf(
			attr.Named("a", attr.ListOf(attr.Named("medium", attr.ID("text")))),
			attr.Named("a", attr.ListOf(attr.Named("medium", attr.ID("text"))))),
		"bad-channel": attr.ListOf(attr.Named("a", attr.Number(1))),
	}
	for name, v := range cases {
		if _, err := ParseChannelDict(v); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestChannelResolver(t *testing.T) {
	c := Channel{Name: "video", Medium: MediumVideo, Rates: units.Rates{FrameRate: 25}}
	d, err := c.Resolver().Duration(units.Q(50, units.Frames))
	if err != nil {
		t.Fatal(err)
	}
	if d.Seconds() != 2 {
		t.Errorf("50fr@25 = %v", d)
	}
}
