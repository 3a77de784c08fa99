package edit

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/newsdoc"
	"repro/internal/sched"
	"repro/internal/units"
)

func news(t *testing.T) *core.Document {
	t.Helper()
	d, _, err := newsdoc.Build(newsdoc.Config{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCheckArcsCleanCorpus(t *testing.T) {
	d := news(t)
	if broken := CheckArcs(d); len(broken) != 0 {
		t.Errorf("clean corpus has broken arcs: %v", broken)
	}
}

func TestDeleteNodeSeversArcs(t *testing.T) {
	d := news(t)
	// cap-4 gates the crime scene; deleting it severs that arc.
	res, err := DeleteNode(d, "story-0/caption/cap-4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Broken) == 0 {
		t.Fatal("deleting an arc source reported no broken arcs")
	}
	found := false
	for _, b := range res.Broken {
		if b.Carrier.Name() == "crime-scene" {
			found = true
		}
		if b.String() == "" {
			t.Error("empty broken-arc description")
		}
	}
	if !found {
		t.Errorf("crime-scene arc not reported: %v", res.Broken)
	}
}

func TestDeleteNodeErrors(t *testing.T) {
	d := news(t)
	if _, err := DeleteNode(d, "ghost"); err == nil {
		t.Error("deleting missing node succeeded")
	}
	if _, err := DeleteNode(d, ""); err == nil {
		t.Error("deleting root succeeded")
	}
}

func TestInsertNode(t *testing.T) {
	d := news(t)
	leaf := core.NewImm([]byte("breaking")).SetName("breaking").
		SetAttr("style", attr.ID("caption-style")).
		SetAttr("duration", attr.Quantity(units.MS(1000)))
	res, err := InsertNode(d, "story-0/caption", 0, leaf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Broken) != 0 {
		t.Errorf("insert broke arcs: %v", res.Broken)
	}
	if d.Root.FindByName("breaking") == nil {
		t.Fatal("node not inserted")
	}
	// Still schedulable.
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Solve(sched.SolveOptions{Relax: true}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertNodeErrors(t *testing.T) {
	d := news(t)
	if _, err := InsertNode(d, "story-0/caption/cap-1", 0, core.NewImm(nil)); err == nil {
		t.Error("insert under leaf succeeded")
	}
	if _, err := InsertNode(d, "ghost", 0, core.NewImm(nil)); err == nil {
		t.Error("insert under missing parent succeeded")
	}
	dup := core.NewImm(nil).SetName("cap-1")
	if _, err := InsertNode(d, "story-0/caption", 0, dup); err == nil {
		t.Error("duplicate sibling name accepted")
	}
}

func TestRenameRewritesArcs(t *testing.T) {
	d := news(t)
	// cap-4 is referenced by the crime-scene gate arc.
	res, err := RenameNode(d, "story-0/caption/cap-4", "value-caption")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Broken) != 0 {
		t.Fatalf("rename broke arcs: %v", res.Broken)
	}
	if res.Rewritten == 0 {
		t.Error("no arcs rewritten despite reference")
	}
	// The gate still points at the renamed node.
	crime := d.Root.FindByName("crime-scene")
	arcs, err := crime.Arcs()
	if err != nil || len(arcs) == 0 {
		t.Fatal("crime-scene lost its arc")
	}
	src, _, err := crime.ResolveArc(arcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "value-caption" {
		t.Errorf("arc resolves to %q", src.Name())
	}
	// Timing is unchanged by a pure rename.
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(crime).Seconds() != 8 {
		t.Errorf("crime scene moved to %v after rename", s.StartOf(crime))
	}
}

func TestRenameErrors(t *testing.T) {
	d := news(t)
	if _, err := RenameNode(d, "ghost", "x"); err == nil {
		t.Error("renaming missing node succeeded")
	}
	if _, err := RenameNode(d, "story-0/caption/cap-1", ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := RenameNode(d, "story-0/caption/cap-1", "cap-2"); err == nil {
		t.Error("duplicate sibling name accepted")
	}
}

// TestSetAttrRefusesNamesTheTextFormCannotCarry: a submitted edit cannot
// give a node an attribute the text writer refuses.
func TestSetAttrRefusesNamesTheTextFormCannotCarry(t *testing.T) {
	d := news(t)
	for _, name := range []string{"+A", "seq", "data", "has space"} {
		rec, err := RecordSetAttr("story-0/caption/cap-1", name, attr.ID("v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := Apply(d, []core.ChangeRecord{rec}); err == nil {
			t.Errorf("attribute %q accepted", name)
		}
	}
}

func TestMoveNodeRewritesArcs(t *testing.T) {
	d := news(t)
	// Move the whole caption sequence under a new wrapper; the arcs from
	// video (crime-scene gate) and graphic (painting-two offset) must be
	// rewritten and still resolve.
	wrapper := core.NewPar().SetName("wrapper")
	if _, err := InsertNode(d, "story-0", 5, wrapper); err != nil {
		t.Fatal(err)
	}
	res, err := MoveNode(d, "story-0/caption", "story-0/wrapper", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Broken) != 0 {
		t.Fatalf("move broke arcs: %v", res.Broken)
	}
	if res.Rewritten == 0 {
		t.Error("no arcs rewritten by the move")
	}
	// The crime-scene gate resolves to the moved cap-4.
	crime := d.Root.FindByName("crime-scene")
	arcs, _ := crime.Arcs()
	src, _, err := crime.ResolveArc(arcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "cap-4" {
		t.Errorf("gate resolves to %q", src.Name())
	}
	// Still schedulable with the same gate time.
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(crime).Seconds() != 8 {
		t.Errorf("crime scene at %v after move", s.StartOf(crime))
	}
}

func TestMoveNodeErrors(t *testing.T) {
	d := news(t)
	if _, err := MoveNode(d, "", "story-0", 0); err == nil {
		t.Error("moving root succeeded")
	}
	if _, err := MoveNode(d, "ghost", "story-0", 0); err == nil {
		t.Error("moving missing node succeeded")
	}
	if _, err := MoveNode(d, "story-0/caption", "ghost", 0); err == nil {
		t.Error("moving to missing parent succeeded")
	}
	if _, err := MoveNode(d, "story-0/caption", "story-0/caption/cap-1", 0); err == nil {
		t.Error("moving under leaf succeeded")
	}
	if _, err := MoveNode(d, "story-0", "story-0/caption", 0); err == nil {
		t.Error("moving node into own subtree succeeded")
	}
	// Sibling name clash at destination.
	clash := core.NewSeq().SetName("caption")
	if _, err := InsertNode(d, "", 1, core.NewPar().SetName("annex").AddChild(clash)); err != nil {
		t.Fatal(err)
	}
	if _, err := MoveNode(d, "story-0/caption", "annex", 0); err == nil {
		t.Error("duplicate name at destination accepted")
	}
}

func TestRelativePath(t *testing.T) {
	d := news(t)
	crime := d.Root.FindByName("crime-scene")
	cap4 := d.Root.FindByName("cap-4")
	p := relativePath(crime, cap4)
	got, err := crime.Resolve(p)
	if err != nil || got != cap4 {
		t.Errorf("relativePath %q resolves to %v, %v", p, got, err)
	}
	if relativePath(crime, crime) != "" {
		t.Error("self path not empty")
	}
	// From deep to root.
	p = relativePath(cap4, d.Root)
	if got, err := cap4.Resolve(p); err != nil || got != d.Root {
		t.Errorf("path to root %q: %v, %v", p, got, err)
	}
	// Detached node falls back to an absolute path.
	stray := core.NewSeq().SetName("stray")
	if p := relativePath(stray, cap4); p == "" {
		t.Error("no fallback for disjoint trees")
	}
}
