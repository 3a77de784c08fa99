package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/newsdoc"
)

// goldenSpecs are the corpus documents internal/player's golden table pins.
var goldenSpecs = []corpus.Spec{
	{Shape: corpus.Archive, Seed: 201, Size: 20},
	{Shape: corpus.DeepNest, Seed: 204, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 205, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 207, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 208, Size: 2, Depth: 6},
	{Shape: corpus.NewsWeb, Seed: 101, Size: 8, Languages: 4},
}

// lookupNames is every registered attribute plus a name nothing defines.
func lookupNames() []string {
	return append(core.StandardAttrs.Names(), "no-such-attr")
}

// checkLookup compares the single-name lookup with EffectiveAttrs for
// every node and name of d: the same value, found flag and error text. It
// then holds Resolve to the lookups node by node: the walk visits the
// nodes in pre-order, and each resolved field and error equals what
// ChannelOf, FileOf, DurationOf, MediumOf, Node.Arcs and the single-name
// lookup report.
func checkLookup(t *testing.T, label string, d *core.Document) {
	t.Helper()
	names := lookupNames()
	var order []*core.Node
	d.Root.Walk(func(n *core.Node) bool {
		order = append(order, n)
		eff, effErr := d.EffectiveAttrs(n)
		for _, name := range names {
			v, found, err := core.EffectiveAttr(d, n, name)
			if !sameErr(err, effErr) {
				t.Fatalf("%s %s %q: error %v, EffectiveAttrs %v", label, n.PathString(), name, err, effErr)
			}
			if err != nil {
				continue
			}
			want, wantFound := eff.Get(name)
			if found != wantFound || !v.Equal(want) {
				t.Fatalf("%s %s %q: got %v (found %v), EffectiveAttrs has %v (found %v)",
					label, n.PathString(), name, v, found, want, wantFound)
			}
		}
		return true
	})
	res := core.Resolve(d)
	if len(res) != len(order) {
		t.Fatalf("%s: Resolve gave %d nodes, the tree has %d", label, len(res), len(order))
	}
	for i, n := range order {
		r := &res[i]
		fail := func(field string, got, want interface{}) {
			t.Helper()
			t.Fatalf("%s %s: resolved %s %v, lookup says %v", label, n.PathString(), field, got, want)
		}
		if r.Node != n {
			fail("node", r.Node.PathString(), n.PathString())
		}
		if _, _, err := core.EffectiveAttr(d, n, "channel"); !sameErr(r.Err(), err) {
			fail("error", r.Err(), err)
		}
		ch, err := d.ChannelOf(n)
		if (r.Channel != nil) != (err == nil) || r.Channel != nil && !reflect.DeepEqual(*r.Channel, ch) || !sameErr(r.ChannelErr(), err) {
			fail("channel", fmt.Sprint(r.Channel, r.ChannelErr()), fmt.Sprint(ch, err))
		}
		if file, ok := d.FileOf(n); r.File != file || r.HasFile != ok {
			fail("file", r.File, file)
		}
		if dur, ok := d.DurationOf(n); r.Duration != dur || r.HasDuration != ok {
			fail("duration", r.Duration, dur)
		}
		if m := d.MediumOf(n); r.Medium != m {
			fail("medium", r.Medium, m)
		}
		if arcs, err := n.Arcs(); !reflect.DeepEqual(r.Arcs, arcs) || !sameErr(r.ArcsErr, err) {
			fail("arcs", fmt.Sprint(r.Arcs, r.ArcsErr), fmt.Sprint(arcs, err))
		}
	}
}

// sameErr reports whether two errors are both nil or have the same text.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// styledDocs are hand-built documents for the style paths the corpora do
// not take: own-vs-style precedence, chained styles, and an undefined or
// cyclic style on an ancestor that does not itself supply the name.
func styledDocs(t *testing.T) map[string]*core.Document {
	t.Helper()
	build := func(root *core.Node, defs map[string]attr.List) *core.Document {
		d, err := core.NewDocument(root)
		if err != nil {
			t.Fatal(err)
		}
		cd := core.NewChannelDict()
		cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo})
		cd.Define(core.Channel{Name: "captions", Medium: core.MediumText})
		d.SetChannels(cd)
		sd := attr.NewStyleDict()
		for name, l := range defs {
			sd.Define(name, l)
		}
		d.SetStyles(sd)
		return d
	}
	leaf := func(name string) *core.Node {
		return core.NewImm([]byte(name)).SetName(name)
	}
	docs := map[string]*core.Document{}

	// Own attributes beat the node's style; a nearer style beats the one
	// it chains to; an ancestor's style supplies only inheritable names.
	root := core.NewSeq().SetName("r").SetAttr("style", attr.ID("outer"))
	story := core.NewPar().SetName("story").SetAttr("style", attr.VList(attr.ID("mid"), attr.Number(3), attr.ID("base")))
	story.Add(
		leaf("own").SetAttr("channel", attr.ID("video")).SetAttr("style", attr.ID("caption")),
		leaf("styled").SetAttr("style", attr.ID("caption")),
		leaf("plain"),
		leaf("stringstyle").SetAttr("style", attr.String("caption")),
	)
	root.Add(story)
	docs["precedence-and-chains"] = build(root, map[string]attr.List{
		"caption": attr.MustList(attr.P("channel", attr.ID("captions")), attr.P("style", attr.ID("base")), attr.P("medium", attr.ID("text"))),
		"mid":     attr.MustList(attr.P("style", attr.ID("base")), attr.P("title", attr.String("mid"))),
		"base":    attr.MustList(attr.P("file", attr.String("base.dat")), attr.P("duration", attr.Number(4)), attr.P("title", attr.String("base"))),
		"outer":   attr.MustList(attr.P("channel", attr.ID("video")), attr.P("tformatting", attr.ListOf(attr.Named("size", attr.Number(9))))),
	})

	// An undefined style two levels up, on a composite that supplies
	// nothing the leaves look up: every lookup below it fails.
	root = core.NewSeq().SetName("r")
	mid := core.NewPar().SetName("mid").SetAttr("style", attr.VList(attr.ID("fine"), attr.ID("ghost")))
	inner := core.NewSeq().SetName("inner").SetAttr("channel", attr.ID("video"))
	inner.Add(leaf("x").SetAttr("file", attr.String("x.dat")))
	mid.Add(inner)
	root.Add(mid, leaf("sibling").SetAttr("channel", attr.ID("captions")))
	docs["undefined-on-ancestor"] = build(root, map[string]attr.List{
		"fine": attr.MustList(attr.P("title", attr.String("t"))),
	})

	// A cycle reached through a chain, after an earlier style already
	// bound the name.
	root = core.NewSeq().SetName("r").SetAttr("channel", attr.ID("video"))
	loopy := core.NewSeq().SetName("loopy").SetAttr("style", attr.VList(attr.ID("early"), attr.ID("a")))
	loopy.Add(leaf("y"))
	root.Add(loopy, leaf("z").SetAttr("style", attr.ID("b")))
	docs["cycle"] = build(root, map[string]attr.List{
		"early": attr.MustList(attr.P("channel", attr.ID("captions"))),
		"a":     attr.MustList(attr.P("file", attr.String("a.dat")), attr.P("style", attr.ID("b"))),
		"b":     attr.MustList(attr.P("style", attr.ID("c"))),
		"c":     attr.MustList(attr.P("style", attr.ID("a"))),
	})

	// A channel the dictionary lacks, one bound as a string, and syncarcs
	// that are not a list or hold a malformed arc.
	root = core.NewSeq().SetName("r").SetAttr("channel", attr.ID("nowhere"))
	typeless := attr.ListOf(attr.Named("src", attr.String("..")))
	root.Add(
		leaf("lost"),
		leaf("stringchan").SetAttr("channel", attr.String("video")),
		leaf("scalararcs").SetAttr("syncarcs", attr.Number(3)),
		leaf("badarc").SetAttr("syncarcs", attr.VList(typeless)),
	)
	docs["undefined-channel-bad-arcs"] = build(root, nil)
	return docs
}

func corpusDoc(t testing.TB, spec corpus.Spec) *core.Document {
	t.Helper()
	d, _, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAttrLookupMatchesEffectiveAttrs pins the single-name lookup to the
// list form on the three corpus shapes, the golden corpus, the evening news
// (which carries styles) and the hand-built style cases.
func TestAttrLookupMatchesEffectiveAttrs(t *testing.T) {
	for _, sh := range corpus.Shapes() {
		spec := corpus.Spec{Shape: sh, Seed: 7, Size: 3, Depth: 4}
		checkLookup(t, string(sh), corpusDoc(t, spec))
	}
	for _, spec := range goldenSpecs {
		checkLookup(t, string(spec.Shape), corpusDoc(t, spec))
	}
	news, _, err := newsdoc.Build(newsdoc.Config{Stories: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkLookup(t, "newsdoc", news)
	cases := styledDocs(t)
	for label, d := range cases {
		checkLookup(t, label, d)
	}
	// The hand-built cases must reach the paths they are named for.
	for label, leaf := range map[string]string{"undefined-on-ancestor": "x", "cycle": "y"} {
		if _, err := cases[label].ChannelOf(cases[label].Root.FindByName(leaf)); err == nil {
			t.Errorf("%s: the lookup on %s did not fail", label, leaf)
		}
	}
	d := cases["undefined-channel-bad-arcs"]
	for leaf, want := range map[string]string{"lost": "undefined channel", "stringchan": "no channel"} {
		if _, err := d.ChannelOf(d.Root.FindByName(leaf)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("undefined-channel-bad-arcs: ChannelOf(%s) = %v, want %q", leaf, err, want)
		}
	}
	for _, leaf := range []string{"scalararcs", "badarc"} {
		if _, err := d.Root.FindByName(leaf).Arcs(); err == nil {
			t.Errorf("undefined-channel-bad-arcs: %s's syncarcs parsed", leaf)
		}
	}
	d = cases["precedence-and-chains"]
	if c, err := d.ChannelOf(d.Root.FindByName("own")); err != nil || c.Name != "video" {
		t.Errorf("own channel lost to its style: %v, %v", c.Name, err)
	}
	if f, _ := d.FileOf(d.Root.FindByName("plain")); f != "base.dat" {
		t.Errorf("file through an ancestor's chained style = %q, want base.dat", f)
	}
}

// TestAccessorsAllocateNothing is the ceiling on the per-leaf lookups the
// scheduler, player, renderers and filter make: ChannelOf, FileOf and
// DurationOf allocate nothing on a corpus leaf.
func TestAccessorsAllocateNothing(t *testing.T) {
	for _, sh := range corpus.Shapes() {
		d := corpusDoc(t, corpus.Spec{Shape: sh, Seed: 7, Size: 3, Depth: 4})
		var leaves []*core.Node
		d.Root.Walk(func(n *core.Node) bool {
			if n.Type.IsLeaf() {
				leaves = append(leaves, n)
			}
			return true
		})
		allocs := testing.AllocsPerRun(5, func() {
			for _, n := range leaves {
				if _, err := d.ChannelOf(n); err != nil {
					t.Fatal(err)
				}
				d.FileOf(n)
				d.DurationOf(n)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per pass over %d leaves, want 0", sh, allocs, len(leaves))
		}
	}
}

// FuzzEffectiveAttr is a differential target: any document the text codec
// accepts must give the single-name lookup and EffectiveAttrs the same
// answer for every node and name.
func FuzzEffectiveAttr(f *testing.F) {
	for _, sh := range corpus.Shapes() {
		d := corpusDoc(f, corpus.Spec{Shape: sh, Seed: 3, Size: 2, Depth: 2, Languages: 2})
		addSeed(f, d)
	}
	news, _, err := newsdoc.Build(newsdoc.Config{Stories: 1})
	if err != nil {
		f.Fatal(err)
	}
	addSeed(f, news)
	f.Add(`(seq (styledict [(a [(style b) (channel v)]) (b [(style a)])]) (style a) (imm (name x) (style [b c])))`)
	f.Fuzz(func(t *testing.T, src string) {
		d, err := codec.Parse(src)
		if err != nil {
			return
		}
		checkLookup(t, "fuzz", d)
	})
}

func addSeed(f *testing.F, d *core.Document) {
	text, err := codec.Encode(d, codec.WriteOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(text)
}
