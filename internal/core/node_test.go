package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/attr"
)

// buildNews constructs a miniature of the paper's Figure 5 tree:
// a root par of seq stories, each with leaves on several channels.
func buildNews() *Node {
	root := NewPar().SetName("news")
	story := NewSeq().SetName("story-3")
	intro := NewExt().SetName("intro").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("anchor.vid"))
	report := NewExt().SetName("report").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("scene.vid"))
	label := NewImm([]byte("Story 3. Paintings")).SetName("label").
		SetAttr("channel", attr.ID("labels"))
	story.Add(intro, report, label)
	audio := NewSeq().SetName("audio").
		SetAttr("channel", attr.ID("sound"))
	voice := NewExt().SetName("voice").SetAttr("file", attr.String("voice.aud"))
	audio.AddChild(voice)
	root.Add(story, audio)
	return root
}

func TestNodeTypeParsing(t *testing.T) {
	for _, tt := range []NodeType{Seq, Par, Ext, Imm} {
		got, err := ParseNodeType(tt.String())
		if err != nil || got != tt {
			t.Errorf("round trip %v: got %v, %v", tt, got, err)
		}
	}
	if _, err := ParseNodeType("loop"); err == nil {
		t.Error("unknown node type accepted")
	}
	if !Ext.IsLeaf() || !Imm.IsLeaf() || Seq.IsLeaf() || Par.IsLeaf() {
		t.Error("IsLeaf misclassifies")
	}
}

func TestTreeShape(t *testing.T) {
	root := buildNews()
	if root.Count() != 7 {
		t.Errorf("Count = %d, want 7", root.Count())
	}
	if got := len(root.Leaves()); got != 4 {
		t.Errorf("Leaves = %d, want 4", got)
	}
	story := root.Child(0)
	if story.Name() != "story-3" || story.Index() != 0 {
		t.Errorf("child 0 = %v idx %d", story, story.Index())
	}
	if story.Parent() != root {
		t.Error("parent link broken")
	}
	if root.Root() != root || !root.IsRoot() {
		t.Error("root identification broken")
	}
	leaf := story.Child(0)
	if leaf.Root() != root {
		t.Error("leaf Root() != root")
	}
	if leaf.Depth() != 2 {
		t.Errorf("leaf depth = %d, want 2", leaf.Depth())
	}
}

func TestSiblingNavigation(t *testing.T) {
	root := buildNews()
	story := root.Child(0)
	intro, report := story.Child(0), story.Child(1)
	if report.PrevSibling() != intro {
		t.Error("PrevSibling broken")
	}
	if intro.PrevSibling() != nil {
		t.Error("first child has PrevSibling")
	}
}

func TestAddChildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddChild on leaf did not panic")
		}
	}()
	NewExt().AddChild(NewSeq())
}

func TestReparentPanics(t *testing.T) {
	parent := NewSeq()
	child := NewExt()
	parent.AddChild(child)
	defer func() {
		if recover() == nil {
			t.Error("double AddChild did not panic")
		}
	}()
	NewSeq().AddChild(child)
}

func TestRemoveAndInsertChild(t *testing.T) {
	root := NewSeq()
	a, b, c := NewExt().SetName("a"), NewExt().SetName("b"), NewExt().SetName("c")
	root.Add(a, b, c)
	got := root.RemoveChild(1)
	if got != b || b.Parent() != nil || b.Index() != -1 {
		t.Errorf("RemoveChild: got %v", got)
	}
	if root.NumChildren() != 2 || root.Child(1) != c || c.Index() != 1 {
		t.Error("sibling reindex after removal failed")
	}
	if root.RemoveChild(9) != nil {
		t.Error("out-of-range removal returned node")
	}
	root.InsertChild(1, b)
	if root.Child(1) != b || b.Index() != 1 || c.Index() != 2 {
		t.Error("InsertChild misplaced node")
	}
	d := NewExt().SetName("d")
	root.InsertChild(99, d) // clamps to append
	if root.Child(3) != d {
		t.Error("InsertChild clamp to end failed")
	}
	e := NewExt().SetName("e")
	root.InsertChild(-5, e) // clamps to front
	if root.Child(0) != e || a.Index() != 1 {
		t.Error("InsertChild clamp to front failed")
	}
}

func TestWalkPruning(t *testing.T) {
	root := buildNews()
	var visited []string
	root.Walk(func(n *Node) bool {
		visited = append(visited, n.Name())
		return n.Name() != "story-3" // prune the story subtree
	})
	for _, v := range visited {
		if v == "intro" {
			t.Error("pruned subtree was visited")
		}
	}
	want := []string{"news", "story-3", "audio", "voice"}
	if len(visited) != len(want) {
		t.Errorf("visited %v, want %v", visited, want)
	}
}

func TestWalkPostOrder(t *testing.T) {
	root := buildNews()
	var order []string
	root.WalkPost(func(n *Node) { order = append(order, n.Name()) })
	if order[len(order)-1] != "news" {
		t.Errorf("post-order must end at root, got %v", order)
	}
	if order[0] != "intro" {
		t.Errorf("post-order must start at first leaf, got %v", order)
	}
}

func TestPathString(t *testing.T) {
	root := buildNews()
	if root.PathString() != "/" {
		t.Errorf("root path = %q", root.PathString())
	}
	intro := root.Child(0).Child(0)
	if got := intro.PathString(); got != "/story-3/intro" {
		t.Errorf("intro path = %q", got)
	}
	anon := NewExt()
	root.Child(0).AddChild(anon)
	if got := anon.PathString(); got != "/story-3/#3" {
		t.Errorf("anonymous path = %q", got)
	}
	// AppendPath extends the caller's buffer with the same rendering, also
	// past PathString's 64-byte stack buffer.
	deep := anon
	for i := 0; i < 12; i++ {
		deep.Type = Seq
		next := NewExt().SetName("level-" + strconv.Itoa(i))
		deep.AddChild(next)
		deep = next
	}
	for _, n := range []*Node{root, intro, anon, deep} {
		if got := string(n.AppendPath([]byte("at "))); got != "at "+n.PathString() {
			t.Errorf("AppendPath = %q, PathString = %q", got, n.PathString())
		}
	}
	if got := deep.PathString(); len(got) < 100 || !strings.HasPrefix(got, "/story-3/#3/level-0/") {
		t.Errorf("deep path = %q", got)
	}
}

func TestResolve(t *testing.T) {
	root := buildNews()
	story := root.Child(0)
	intro := story.Child(0)

	cases := []struct {
		from *Node
		path string
		want *Node
	}{
		{root, "", root},
		{root, ".", root},
		{intro, "", intro},
		{intro, "..", story},
		{intro, "../report", story.Child(1)},
		{intro, "../../audio/voice", root.Child(1).Child(0)},
		{root, "story-3/intro", intro},
		{intro, "/story-3", story},
		{intro, "/", root},
		{root, "story-3/#1", story.Child(1)},
		{intro, "./../intro", intro},
	}
	for _, c := range cases {
		got, err := c.from.Resolve(c.path)
		if err != nil {
			t.Errorf("Resolve(%q) from %s: %v", c.path, c.from.PathString(), err)
			continue
		}
		if got != c.want {
			t.Errorf("Resolve(%q) = %s, want %s", c.path, got.PathString(), c.want.PathString())
		}
	}
}

func TestResolveErrors(t *testing.T) {
	root := buildNews()
	for _, path := range []string{"nope", "story-3/ghost", "../up", "story-3/#9", "story-3/#x"} {
		if _, err := root.Resolve(path); err == nil {
			t.Errorf("Resolve(%q): want error", path)
		}
	}
	_, err := root.Resolve("../up")
	pe, ok := err.(*PathError)
	if !ok {
		t.Fatalf("want *PathError, got %T", err)
	}
	if pe.At != ".." {
		t.Errorf("PathError.At = %q", pe.At)
	}
	if pe.Error() == "" {
		t.Error("empty error text")
	}
}

func TestFindByName(t *testing.T) {
	root := buildNews()
	if n := root.FindByName("voice"); n == nil || n.PathString() != "/audio/voice" {
		t.Errorf("FindByName(voice) = %v", n)
	}
	if n := root.FindByName("missing"); n != nil {
		t.Errorf("FindByName(missing) = %v", n)
	}
}

func TestInheritance(t *testing.T) {
	root := buildNews()
	voice := root.FindByName("voice")
	d, err := NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	inherited := func(name string) (string, bool) {
		t.Helper()
		eff, err := d.EffectiveAttrs(voice)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := eff.Get(name)
		s, _ := v.Text()
		return s, ok
	}
	// channel is inherited from /audio.
	if id, ok := inherited("channel"); !ok || id != "sound" {
		t.Errorf("inherited channel = %q, %v", id, ok)
	}
	// name is NOT inheritable: the leaf's own name, not the parent's.
	if s, ok := inherited("name"); !ok || s != "voice" {
		t.Errorf("name = %q, %v", s, ok)
	}
	// An uninheritable attribute on the parent is invisible to children.
	root.Child(1).Attrs.Set("title", attr.String("Audio Track"))
	if _, ok := inherited("title"); ok {
		t.Error("non-inheritable attribute leaked to child")
	}
	// Override beats inheritance.
	voice.SetAttr("channel", attr.ID("sound-2"))
	if id, _ := inherited("channel"); id != "sound-2" {
		t.Errorf("override lost: %q", id)
	}
}

func TestCloneIndependence(t *testing.T) {
	root := buildNews()
	c := root.Clone()
	if c.Count() != root.Count() {
		t.Fatalf("clone count %d != %d", c.Count(), root.Count())
	}
	if c.Parent() != nil || c.Index() != -1 {
		t.Error("clone not detached")
	}
	// Mutate clone: original unaffected.
	c.Child(0).SetName("hijacked")
	if root.Child(0).Name() != "story-3" {
		t.Error("clone mutation leaked")
	}
	cl := c.FindByName("label")
	cl.Data[0] = 'X'
	if root.FindByName("label").Data[0] == 'X' {
		t.Error("clone shares Data storage")
	}
}

func TestNodeString(t *testing.T) {
	n := NewSeq().SetName("x")
	if n.String() == "" {
		t.Error("empty String()")
	}
	if NewExt().String() == "" {
		t.Error("empty String() for anon node")
	}
}
