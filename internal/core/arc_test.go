package core

import (
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/units"
)

func TestArcValueRoundTrip(t *testing.T) {
	arcs := []SyncArc{
		{DestEnd: Begin, Strict: Must, Source: "../audio/intro", Dest: ""},
		{DestEnd: End, Strict: May, Source: "..", SrcEnd: End,
			Offset: units.MS(40), Dest: "caption/intro",
			MinDelay: units.MS(-10), MaxDelay: units.MS(100)},
		{DestEnd: Begin, Strict: Must, Source: "/", Dest: "story-3",
			MaxDelay: units.InfiniteQuantity()},
		{DestEnd: Begin, Strict: May, Source: "a/b", SrcEnd: End,
			Offset: units.Q(25, units.Frames), Dest: "c",
			MinDelay: units.Q(-1, units.Seconds), MaxDelay: units.Q(2, units.Seconds)},
	}
	for i, a := range arcs {
		back, err := ParseArc(a.Value())
		if err != nil {
			t.Errorf("arc %d: %v", i, err)
			continue
		}
		if back != a {
			t.Errorf("arc %d round trip:\n got %+v\nwant %+v", i, back, a)
		}
	}
}

func TestArcRoundTripProperty(t *testing.T) {
	f := func(destEnd, strict, srcEnd bool, off, min, max int32, inf bool) bool {
		a := SyncArc{Source: "../x", Dest: "y/z"}
		if destEnd {
			a.DestEnd = End
		}
		if strict {
			a.Strict = May
		}
		if srcEnd {
			a.SrcEnd = End
		}
		a.Offset = units.MS(int64(abs32(off)))
		a.MinDelay = units.MS(-int64(abs32(min)))
		if inf {
			a.MaxDelay = units.InfiniteQuantity()
		} else {
			a.MaxDelay = units.MS(int64(abs32(max)))
		}
		back, err := ParseArc(a.Value())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		if v == -1<<31 {
			return 1 << 30
		}
		return -v
	}
	return v
}

func TestArcValidate(t *testing.T) {
	good := SyncArc{MinDelay: units.MS(-5), MaxDelay: units.MS(10), Offset: units.MS(3)}
	if err := good.Validate(); err != nil {
		t.Errorf("good arc rejected: %v", err)
	}
	bad := []SyncArc{
		{Offset: units.MS(-1)},   // negative offset
		{MinDelay: units.MS(1)},  // positive min delay has no meaning
		{MaxDelay: units.MS(-1)}, // negative max delay has no meaning
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad arc %d accepted", i)
		}
	}
}

func TestParseArcErrors(t *testing.T) {
	typ := attr.Named("type", attr.VList(attr.ID("begin"), attr.ID("must")))
	cases := map[string]attr.Value{
		"not-a-list":     attr.Number(1),
		"missing-type":   attr.ListOf(attr.Named("src", attr.String("x"))),
		"bad-type-shape": attr.ListOf(attr.Named("type", attr.ID("begin"))),
		"bad-endpoint": attr.ListOf(
			attr.Named("type", attr.VList(attr.ID("middle"), attr.ID("must")))),
		"bad-strictness": attr.ListOf(
			attr.Named("type", attr.VList(attr.ID("begin"), attr.ID("perhaps")))),
		"dup-field": attr.ListOf(typ,
			attr.Named("src", attr.String("a")), attr.Named("src", attr.String("b"))),
		"unknown-field": attr.ListOf(typ, attr.Named("wobble", attr.Number(1))),
		"unnamed-field": attr.ListOf(typ, attr.Item{Value: attr.Number(1)}),
		"bad-offset":    attr.ListOf(typ, attr.Named("offset", attr.String("x"))),
		"bad-min":       attr.ListOf(typ, attr.Named("min", attr.ID("x"))),
		"bad-max":       attr.ListOf(typ, attr.Named("max", attr.String("x"))),
		"bad-src":       attr.ListOf(typ, attr.Named("src", attr.Number(1))),
		"bad-srcend":    attr.ListOf(typ, attr.Named("srcend", attr.ID("middle"))),
	}
	for name, v := range cases {
		if _, err := ParseArc(v); err == nil {
			t.Errorf("%s: malformed arc accepted: %v", name, v)
		}
	}
}

func TestAddArcAndArcs(t *testing.T) {
	n := NewExt().SetName("x")
	a1 := SyncArc{DestEnd: Begin, Strict: Must, Source: "..", Dest: ""}
	a2 := SyncArc{DestEnd: End, Strict: May, Source: "", Dest: "../y",
		MaxDelay: units.MS(50)}
	n.AddArc(a1).AddArc(a2)
	arcs, err := n.Arcs()
	if err != nil {
		t.Fatal(err)
	}
	if len(arcs) != 2 || arcs[0] != a1 || arcs[1] != a2 {
		t.Errorf("Arcs = %+v", arcs)
	}
	// A node without arcs yields none.
	if arcs, err := NewExt().Arcs(); err != nil || arcs != nil {
		t.Errorf("empty Arcs = %v, %v", arcs, err)
	}
}

func TestResolveArc(t *testing.T) {
	root := buildNews()
	label := root.FindByName("label")
	a := SyncArc{Source: "../../audio/voice", Dest: ""}
	src, dst, err := label.ResolveArc(a)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "voice" || dst != label {
		t.Errorf("resolved %v -> %v", src, dst)
	}
	bad := SyncArc{Source: "../../ghost", Dest: ""}
	if _, _, err := label.ResolveArc(bad); err == nil {
		t.Error("unresolvable arc accepted")
	}
}

func TestArcString(t *testing.T) {
	a := SyncArc{DestEnd: End, Strict: May, Source: "../a", SrcEnd: End,
		Offset: units.MS(40), Dest: "", MinDelay: units.MS(-10),
		MaxDelay: units.InfiniteQuantity()}
	s := a.String()
	if s == "" {
		t.Fatal("empty arc string")
	}
	for _, want := range []string{"end", "may", "../a", "40ms", "inf"} {
		if !containsStr(s, want) {
			t.Errorf("arc string %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && indexStr(s, sub) >= 0
}

func indexStr(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEndPointStrictnessParsing(t *testing.T) {
	for _, ep := range []EndPoint{Begin, End} {
		got, err := ParseEndPoint(ep.String())
		if err != nil || got != ep {
			t.Errorf("endpoint %v round trip failed", ep)
		}
	}
	for _, st := range []Strictness{Must, May} {
		got, err := ParseStrictness(st.String())
		if err != nil || got != st {
			t.Errorf("strictness %v round trip failed", st)
		}
	}
	if _, err := ParseEndPoint("middle"); err == nil {
		t.Error("bad endpoint accepted")
	}
	if _, err := ParseStrictness("perhaps"); err == nil {
		t.Error("bad strictness accepted")
	}
}
