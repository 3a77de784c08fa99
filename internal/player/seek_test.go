package player

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/units"
)

// seekDoc builds seq(a[0,100], b[100,300]) under a par root with a text
// leaf cap[0,400], plus an arc from a.end to cap.end.
func seekDoc(t *testing.T) (*core.Document, *sched.Graph, *sched.Schedule) {
	t.Helper()
	root := core.NewPar().SetName("r")
	vseq := core.NewSeq().SetName("vseq")
	vseq.Add(leaf("a", "video", 100), leaf("b", "video", 200))
	cap := leaf("cap", "text", 400)
	cap.AddArc(core.SyncArc{DestEnd: core.End, Strict: core.May,
		Source: "../vseq/a", SrcEnd: core.End, Dest: "",
		MaxDelay: units.InfiniteQuantity()})
	root.Add(vseq, cap)
	d := doc(t, root)
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sched.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d, g, s
}

func TestSeekPastMakespan(t *testing.T) {
	_, _, s := seekDoc(t)
	if s.Makespan() != 400*time.Millisecond {
		t.Fatalf("makespan = %v", s.Makespan())
	}
	rep := AnalyzeSeek(s, s.Makespan()+time.Second)
	if len(rep.Active) != 0 {
		t.Errorf("active leaves past makespan: %v", rep.Active)
	}
	// Every arc lies entirely in the past: satisfied, never invalid.
	for _, sa := range rep.Arcs {
		if sa.State != ArcSatisfied {
			t.Errorf("arc %v past makespan: state %v, want satisfied", sa.Ref, sa.State)
		}
	}
}

func TestSeekAtExactMakespan(t *testing.T) {
	_, _, s := seekDoc(t)
	// The leaf interval is half-open [start, end): at exactly the
	// makespan nothing is active any more.
	rep := AnalyzeSeek(s, s.Makespan())
	if len(rep.Active) != 0 {
		t.Errorf("active leaves at exact makespan: %v", rep.Active)
	}
}

func TestSeekAtZero(t *testing.T) {
	_, _, s := seekDoc(t)
	rep := AnalyzeSeek(s, 0)
	if len(rep.Active) != 2 { // a and cap start at 0
		t.Errorf("active at t=0: %v", rep.Active)
	}
	for _, sa := range rep.Arcs {
		if sa.State != ArcValid {
			t.Errorf("arc %v at t=0: state %v, want valid", sa.Ref, sa.State)
		}
	}
}

func TestSeekBoundaryBetweenLeaves(t *testing.T) {
	d, _, s := seekDoc(t)
	// At exactly 100ms a's interval [0,100) has closed and b's [100,300)
	// has opened: only b (and cap) are active.
	rep := AnalyzeSeek(s, 100*time.Millisecond)
	names := map[string]bool{}
	for _, n := range rep.Active {
		names[n.Name()] = true
	}
	if names["a"] || !names["b"] || !names["cap"] {
		t.Errorf("active at 100ms = %v", rep.Active)
	}
	_ = d
}

func TestSeekIntoDroppedArcRegion(t *testing.T) {
	// A May arc that conflicts with seq order is dropped by relaxation.
	// Seeking into the region the dropped arc used to govern must still
	// classify every arc (the dropped one included) and resume cleanly.
	root := core.NewSeq().SetName("r")
	a, b, c := leaf("a", "video", 100), leaf("b", "video", 100), leaf("c", "video", 100)
	root.Add(a, b, c)
	// Demands c begin 50ms after its own end region: contradicts the
	// gap-free chain, droppable.
	root.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.May,
		Source: "b", SrcEnd: core.End, Dest: "a",
		Offset: units.MS(50), MaxDelay: units.InfiniteQuantity()})
	d := doc(t, root)
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dropped) != 1 {
		t.Fatalf("dropped = %v, want the conflicting May arc", s.Dropped)
	}

	rep := AnalyzeSeek(s, 150*time.Millisecond) // inside b, after a
	if len(rep.Arcs) != 1 {
		t.Fatalf("arcs classified = %d, want 1 (dropped arcs stay visible)", len(rep.Arcs))
	}
	// The arc's source (b.end at 200ms) has not executed at 150ms, so the
	// arc reads valid even though the plan dropped it.
	if rep.Arcs[0].State != ArcValid {
		t.Errorf("dropped-arc state at 150ms = %v", rep.Arcs[0].State)
	}

	if _, err := g.SolveFrom(s, nil, rep.Invalid(), sched.SolveOptions{Relax: true}); err != nil {
		t.Errorf("resume inside dropped-arc region unsolvable: %v", err)
	}

	// Past both endpoints the dropped arc reads satisfied — its window is
	// history even though playback never honoured it. It stays in the
	// graph, so a cold solve still needs relaxation; a resume re-solves
	// the plan, which keeps it dropped and needs none.
	rep = AnalyzeSeek(s, 250*time.Millisecond)
	if len(rep.Invalid()) != 0 {
		t.Fatalf("invalid arcs at 250ms = %v, want none", rep.Invalid())
	}
	if rep.Arcs[0].State != ArcSatisfied {
		t.Errorf("dropped-arc state at 250ms = %v, want satisfied", rep.Arcs[0].State)
	}
	if _, err := g.Solve(sched.SolveOptions{}); err == nil {
		t.Error("the graph lost the conflicting May arc: expected a conflict without relaxation")
	}
	resumed, err := g.SolveFrom(s, nil, rep.Invalid(), sched.SolveOptions{})
	if err != nil {
		t.Fatalf("resume from the plan unsolvable: %v", err)
	}
	if len(resumed.Dropped) != 1 || resumed.Dropped[0] != s.Dropped[0] {
		t.Errorf("resume dropped %v, want the plan's %v", resumed.Dropped, s.Dropped)
	}
}

func TestSeekNegativeTime(t *testing.T) {
	_, _, s := seekDoc(t)
	rep := AnalyzeSeek(s, -time.Second)
	if len(rep.Active) != 0 {
		t.Errorf("active before t=0: %v", rep.Active)
	}
	for _, sa := range rep.Arcs {
		if sa.State != ArcValid {
			t.Errorf("arc %v before start: %v, want valid", sa.Ref, sa.State)
		}
	}
}
