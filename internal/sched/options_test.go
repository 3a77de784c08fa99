package sched

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

func TestSeqGapsOption(t *testing.T) {
	// seq(a, b) with b pinned 300ms after a's begin; a lasts 100ms.
	build := func(gaps bool) (*core.Document, *Graph) {
		root := core.NewSeq().SetName("r")
		a, b2 := leaf("a", "video", 100), leaf("b", "video", 100)
		b2.AddArc(core.SyncArc{
			DestEnd: core.Begin, Strict: core.Must,
			Source: "../a", SrcEnd: core.Begin,
			Offset: units.MS(300), Dest: "", MaxDelay: units.MS(0),
		})
		root.Add(a, b2)
		d := doc(t, root)
		g, err := Build(d, Options{SeqGaps: gaps})
		if err != nil {
			t.Fatal(err)
		}
		return d, g
	}

	// Gap-free (default): a stretches to fill [100ms, 300ms].
	d1, g1 := build(false)
	s1, err := g1.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a1 := d1.Root.FindByName("a")
	if s1.EndOf(a1) != 300*time.Millisecond {
		t.Errorf("gap-free: a ends %v, want 300ms (stretched)", s1.EndOf(a1))
	}
	if s1.StretchOf(a1, nil) != 200*time.Millisecond {
		t.Errorf("gap-free stretch = %v", s1.StretchOf(a1, nil))
	}

	// With gaps: a keeps its 100ms; dead air until 300ms.
	d2, g2 := build(true)
	s2, err := g2.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := d2.Root.FindByName("a")
	if s2.EndOf(a2) != 100*time.Millisecond {
		t.Errorf("gappy: a ends %v, want 100ms", s2.EndOf(a2))
	}
	b2 := d2.Root.FindByName("b")
	if s2.StartOf(b2) != 300*time.Millisecond {
		t.Errorf("gappy: b starts %v", s2.StartOf(b2))
	}
}

func TestRelaxStrategyChoosesVictim(t *testing.T) {
	// Two may arcs with different windows contradict a must arc. Both
	// contradict, so both eventually drop, first May arc on the cycle
	// first; the must arc holds.
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 100), leaf("b", "sound", 100)
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Offset: units.MS(500), Dest: "",
		MaxDelay: units.MS(0)})
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.May,
		Source: "../a", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(10)})
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.May,
		Source: "../a", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(200)})
	root.Add(a, b)
	g, err := Build(doc(t, root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dropped) == 0 {
		t.Error("relaxation dropped nothing")
	}
	// The must arc must hold.
	bn := g.Doc().Root.FindByName("b")
	an := g.Doc().Root.FindByName("a")
	if s.StartOf(bn)-s.StartOf(an) != 500*time.Millisecond {
		t.Error("must arc violated")
	}
}

func TestConflictErrorListsConstraintNotes(t *testing.T) {
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 100), leaf("b", "sound", 100)
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Offset: units.MS(100), Dest: "",
		MaxDelay: units.MS(0)})
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	root.Add(a, b)
	g, err := Build(doc(t, root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Solve(SolveOptions{})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want conflict, got %v", err)
	}
	// Every cycle constraint carries a non-empty provenance note.
	for _, c := range ce.Cycle {
		if c.Note() == "" {
			t.Errorf("constraint without provenance: %+v", c)
		}
	}
}

func TestSolveFromDropsArc(t *testing.T) {
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 100), leaf("b", "sound", 100)
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Offset: units.MS(100), Dest: "",
		MaxDelay: units.MS(0)})
	root.Add(a, b)
	g, err := Build(doc(t, root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs := g.Arcs()
	if len(refs) != 1 {
		t.Fatal("arc not registered")
	}
	plan, err := g.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(g.Constraints())
	// Without the pin, b starts at 0.
	s, err := g.SolveFrom(plan, nil, refs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(b) != 0 {
		t.Error("arc constraints survived the drop")
	}
	if len(s.Dropped) != 0 {
		t.Errorf("the dropped arc is reported as relaxed: %v", s.Dropped)
	}
	if len(g.Constraints()) != before || len(g.Arcs()) != 1 {
		t.Error("SolveFrom changed the graph")
	}
	if viol := g.Verify(s.Times(), nil, refs); len(viol) != 0 {
		t.Errorf("Verify holds the schedule to the dropped arc: %s", viol[0].Note())
	}
	if viol := g.Verify(s.Times(), nil, nil); len(viol) == 0 {
		t.Error("Verify without the drop passes a schedule that breaks the arc")
	}
}

func TestSolveFromDropsOnlyTheNamedArc(t *testing.T) {
	// One carrier, two arcs: dropping the first takes its constraints out
	// of the solve and keeps the second's in force.
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 100), leaf("b", "sound", 100)
	for _, off := range []int64{100, 40} {
		b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
			Source: "../a", SrcEnd: core.Begin, Offset: units.MS(off), Dest: "",
			MaxDelay: units.InfiniteQuantity()})
	}
	root.Add(a, b)
	g, err := Build(doc(t, root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	arcs := g.Arcs()
	if len(arcs) != 2 {
		t.Fatalf("arcs = %d, want 2", len(arcs))
	}
	plan, err := g.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.StartOf(b) != 100*time.Millisecond {
		t.Fatalf("planned b at %v, want 100ms", plan.StartOf(b))
	}
	s, err := g.SolveFrom(plan, nil, arcs[:1], SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(b) != 40*time.Millisecond {
		t.Errorf("b at %v, want 40ms: only the second arc holds", s.StartOf(b))
	}
}

func TestRuntimeConstraints(t *testing.T) {
	root := core.NewSeq().SetName("r")
	a := leaf("a", "video", 100)
	root.AddChild(a)
	d := doc(t, root)
	g, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := []Constraint{RuntimeLower(g.Begin(d.Root), g.Begin(a), 50*time.Millisecond, func() string { return "latency" })}
	s, err := g.SolveFrom(plan, bounds, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(a) != 50*time.Millisecond {
		t.Errorf("runtime lower ignored: %v", s.StartOf(a))
	}
	if viol := g.Verify(plan.Times(), bounds, nil); len(viol) != 1 || viol[0].Note() != "latency" {
		t.Errorf("Verify of the plan against the bound = %v, want the bound", viol)
	}
}

func TestStretchOfUsesTheGraphsDurationSource(t *testing.T) {
	// par(a, b): a's attribute says 500ms but Options.DurationOf gives it
	// 100ms, and b's 1s holds the par open; an arc ends a with b. The
	// intrinsic length StretchOf measures from is the 100ms the graph was
	// built with, not the attribute.
	root := core.NewPar().SetName("r")
	a, b := leaf("a", "video", 500), leaf("b", "sound", 1000)
	a.AddArc(core.SyncArc{DestEnd: core.End, Strict: core.Must,
		Source: "../b", SrcEnd: core.End, Dest: "", MaxDelay: units.MS(0)})
	root.Add(a, b)
	g, err := Build(doc(t, root), Options{DurationOf: func(n *core.Node) (time.Duration, bool) {
		if n.Name() == "a" {
			return 100 * time.Millisecond, true
		}
		return time.Second, true
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.StretchOf(a, nil); got != 900*time.Millisecond {
		t.Errorf("StretchOf(a) = %v, want 900ms (1s played, 100ms intrinsic)", got)
	}
}
