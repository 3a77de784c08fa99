package attr

import (
	"errors"
	"testing"
)

func dict(t *testing.T, defs map[string]List) *StyleDict {
	t.Helper()
	d := NewStyleDict()
	for name, l := range defs {
		d.Define(name, l)
	}
	return d
}

func TestExpandBasic(t *testing.T) {
	d := dict(t, map[string]List{
		"caption": MustList(
			P("channel", ID("captions")),
			P("tformatting", ListOf(Named("font", ID("helvetica")), Named("size", Number(12)))),
		),
	})
	node := MustList(P("style", ID("caption")), P("name", String("intro text")))
	got, err := d.Expand(node)
	if err != nil {
		t.Fatal(err)
	}
	if got.Has("style") {
		t.Error("expanded list retains style attribute")
	}
	if ch, _ := got.GetID("channel"); ch != "captions" {
		t.Errorf("channel = %q", ch)
	}
	if n, _ := got.GetString("name"); n != "intro text" {
		t.Errorf("name = %q", n)
	}
}

func TestExpandExplicitWins(t *testing.T) {
	d := dict(t, map[string]List{
		"label": MustList(P("channel", ID("labels")), P("size", Number(10))),
	})
	node := MustList(P("style", ID("label")), P("size", Number(24)))
	got, err := d.Expand(node)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.GetInt("size"); v != 24 {
		t.Errorf("explicit size overridden: got %d", v)
	}
	if ch, _ := got.GetID("channel"); ch != "labels" {
		t.Errorf("channel = %q", ch)
	}
}

func TestExpandTransitiveNearerWins(t *testing.T) {
	d := dict(t, map[string]List{
		"base":  MustList(P("size", Number(10)), P("indent", Number(2))),
		"title": MustList(P("style", ID("base")), P("size", Number(30))),
	})
	node := MustList(P("style", ID("title")))
	got, err := d.Expand(node)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.GetInt("size"); v != 30 {
		t.Errorf("nearer style size lost: got %d", v)
	}
	if v, _ := got.GetInt("indent"); v != 2 {
		t.Errorf("inherited base attr lost: got %d", v)
	}
}

func TestExpandMultipleStylesEarlierWins(t *testing.T) {
	d := dict(t, map[string]List{
		"a": MustList(P("x", Number(1)), P("only-a", Number(1))),
		"b": MustList(P("x", Number(2)), P("only-b", Number(2))),
	})
	node := MustList(P("style", VList(ID("a"), ID("b"))))
	got, err := d.Expand(node)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.GetInt("x"); v != 1 {
		t.Errorf("earlier style x lost: got %d", v)
	}
	if !got.Has("only-a") || !got.Has("only-b") {
		t.Error("union of styles incomplete")
	}
}

func TestExpandUndefined(t *testing.T) {
	d := NewStyleDict()
	node := MustList(P("style", ID("ghost")))
	_, err := d.Expand(node)
	var ue *UndefinedStyleError
	if !errors.As(err, &ue) || ue.Name != "ghost" {
		t.Fatalf("want UndefinedStyleError{ghost}, got %v", err)
	}
}

func TestExpandDirectCycle(t *testing.T) {
	d := dict(t, map[string]List{
		"selfish": MustList(P("style", ID("selfish")), P("x", Number(1))),
	})
	_, err := d.Expand(MustList(P("style", ID("selfish"))))
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("want CycleError, got %v", err)
	}
}

func TestExpandIndirectCycle(t *testing.T) {
	d := dict(t, map[string]List{
		"a": MustList(P("style", ID("b"))),
		"b": MustList(P("style", ID("c"))),
		"c": MustList(P("style", ID("a"))),
	})
	_, err := d.Expand(MustList(P("style", ID("a"))))
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("want CycleError, got %v", err)
	}
	if len(ce.Chain) < 3 {
		t.Errorf("cycle chain too short: %v", ce.Chain)
	}
}

func TestExpandDiamondIsNotACycle(t *testing.T) {
	// a -> b, a -> c, b -> d, c -> d: d reached twice but no cycle.
	d := dict(t, map[string]List{
		"a": MustList(P("style", VList(ID("b"), ID("c")))),
		"b": MustList(P("style", ID("d")), P("from-b", Number(1))),
		"c": MustList(P("style", ID("d")), P("from-c", Number(1))),
		"d": MustList(P("deep", Number(9))),
	})
	got, err := d.Expand(MustList(P("style", ID("a"))))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.GetInt("deep"); v != 9 {
		t.Error("diamond base attribute missing")
	}
}

func TestValidateFindsAllIssues(t *testing.T) {
	d := dict(t, map[string]List{
		"ok":    MustList(P("x", Number(1))),
		"loop":  MustList(P("style", ID("loop"))),
		"buddy": MustList(P("style", ID("missing"))),
	})
	errs := d.Validate()
	var cycles, undefs int
	for _, e := range errs {
		var ce *CycleError
		var ue *UndefinedStyleError
		if errors.As(e, &ce) {
			cycles++
		}
		if errors.As(e, &ue) {
			undefs++
		}
	}
	if cycles != 1 || undefs != 1 {
		t.Errorf("Validate found %d cycles, %d undefined; want 1, 1 (%v)", cycles, undefs, errs)
	}
}

func TestValidateCleanDict(t *testing.T) {
	d := dict(t, map[string]List{
		"base":  MustList(P("x", Number(1))),
		"title": MustList(P("style", ID("base"))),
	})
	if errs := d.Validate(); len(errs) != 0 {
		t.Errorf("clean dict reported errors: %v", errs)
	}
}

func TestParseStyleDictRoundTrip(t *testing.T) {
	d := NewStyleDict()
	d.Define("caption", MustList(P("channel", ID("captions")), P("size", Number(12))))
	d.Define("label", MustList(P("channel", ID("labels"))))
	v := d.DictValue()
	back, err := ParseStyleDict(v)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round-trip lost styles: %d", back.Len())
	}
	orig, _ := d.Lookup("caption")
	got, ok := back.Lookup("caption")
	if !ok || !got.Equal(orig) {
		t.Errorf("caption round-trip mismatch: %v vs %v", got, orig)
	}
}

func TestParseStyleDictErrors(t *testing.T) {
	cases := []Value{
		Number(1),                      // not a list
		ListOf(Item{Value: Number(1)}), // unnamed entry
		ListOf(Named("s", Number(1))),  // body not a list
		ListOf(Named("s", ListOf(Item{Value: ID("anon")}))),                      // unnamed attr in body
		ListOf(Named("s", VList()), Named("s", VList())),                         // duplicate style
		ListOf(Named("s", ListOf(Named("a", Number(1)), Named("a", Number(2))))), // dup attr
	}
	for i, v := range cases {
		if _, err := ParseStyleDict(v); err == nil {
			t.Errorf("case %d: want error for %v", i, v)
		}
	}
}

func TestStyleRefsForms(t *testing.T) {
	l := MustList(P("style", ID("one")))
	if refs := StyleRefs(l); len(refs) != 1 || refs[0] != "one" {
		t.Errorf("single ref: %v", refs)
	}
	l = MustList(P("style", VList(ID("a"), ID("b"))))
	if refs := StyleRefs(l); len(refs) != 2 {
		t.Errorf("list refs: %v", refs)
	}
	l = MustList(P("style", String("not-an-id")))
	if refs := StyleRefs(l); len(refs) != 0 {
		t.Errorf("string style yielded refs: %v", refs)
	}
	if refs := StyleRefs(List{}); refs != nil {
		t.Errorf("empty list yielded refs: %v", refs)
	}
}

// expandedGetCases are dictionaries and node lists covering every path
// through Expand: precedence, chains longer than ExpandedGet's fixed
// buffers, diamonds, multi-style lists with non-ID items, undefined styles
// and cycles found after the name is already bound.
func expandedGetCases() []struct {
	dict *StyleDict
	node List
} {
	chain := NewStyleDict()
	for i := 0; i < 12; i++ {
		body := []Pair{P("depth", Number(int64(i))), P(string(rune('a'+i)), Number(1))}
		if i < 11 {
			body = append(body, P("style", ID(string(rune('A'+i+1)))))
		}
		chain.Define(string(rune('A'+i)), MustList(body...))
	}
	wide := NewStyleDict()
	var refs []Value
	for i := 0; i < 12; i++ {
		name := string(rune('a' + i))
		wide.Define(name, MustList(P("x", Number(int64(i))), P("only-"+name, Number(1))))
		refs = append(refs, ID(name))
	}
	diamond := NewStyleDict()
	diamond.Define("a", MustList(P("style", VList(ID("b"), ID("c")))))
	diamond.Define("b", MustList(P("style", ID("d")), P("from-b", Number(1))))
	diamond.Define("c", MustList(P("style", ID("d")), P("from-c", Number(1)), P("x", Number(3))))
	diamond.Define("d", MustList(P("x", Number(4)), P("deep", Number(9))))
	broken := NewStyleDict()
	broken.Define("ok", MustList(P("x", Number(1))))
	broken.Define("dangling", MustList(P("y", Number(2)), P("style", ID("ghost"))))
	broken.Define("loop1", MustList(P("x", Number(5)), P("style", ID("loop2"))))
	broken.Define("loop2", MustList(P("style", ID("loop1"))))
	return []struct {
		dict *StyleDict
		node List
	}{
		{chain, MustList(P("style", ID("A")), P("b", Number(7)))},
		{wide, MustList(P("style", VList(append([]Value{Number(1)}, refs...)...)))},
		{diamond, MustList(P("style", ID("a")), P("deep", Number(1)))},
		{diamond, MustList(P("style", String("a")))},
		{diamond, MustList(P("x", Number(0)))},
		{broken, MustList(P("style", VList(ID("ok"), ID("dangling"))))},
		{broken, MustList(P("style", VList(ID("ok"), ID("loop1"))))},
		{broken, MustList(P("style", VList(ID("ok"), ID("ok"), ID("nowhere"))))},
		{broken, MustList(P("style", ID("")))},
	}
}

func TestExpandedGetMatchesExpand(t *testing.T) {
	for i, c := range expandedGetCases() {
		want, wantErr := c.dict.Expand(c.node)
		names := append(want.Names(), "style", "x", "y", "deep", "absent")
		for _, name := range c.dict.Names() {
			def, _ := c.dict.Lookup(name)
			names = append(names, def.Names()...)
		}
		for _, name := range names {
			v, found, err := c.dict.ExpandedGet(c.node, name)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("case %d %q: error %v, Expand's %v", i, name, err, wantErr)
			}
			if err != nil {
				continue
			}
			wv, wfound := want.Get(name)
			if found != wfound || !v.Equal(wv) {
				t.Errorf("case %d %q: got %v/%v, Expand has %v/%v", i, name, v, found, wv, wfound)
			}
		}
	}
}

func TestExpandedGetAllocatesNothing(t *testing.T) {
	d := dict(t, map[string]List{
		"base":  MustList(P("size", Number(10)), P("indent", Number(2))),
		"title": MustList(P("style", ID("base")), P("size", Number(30))),
	})
	node := MustList(P("style", VList(ID("title"), ID("base"))), P("name", ID("n")))
	if n := testing.AllocsPerRun(100, func() {
		if _, ok, err := d.ExpandedGet(node, "indent"); !ok || err != nil {
			t.Fatal("indent not found")
		}
	}); n != 0 {
		t.Errorf("ExpandedGet allocates %v times per call, want 0", n)
	}
}
