package sched

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/units"
)

// TestConcurrentFirstSolves: Build makes the graph's flat list, so the
// first solves of one graph, and a clone played beside them, only read
// it. Run under -race.
func TestConcurrentFirstSolves(t *testing.T) {
	d := corpusDoc(t, corpus.Spec{Shape: corpus.Archive, Seed: 201, Size: 20})
	g, err := Build(d, Options{DefaultLeafDuration: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The reference plan comes from a second graph, so that g's first
	// solves are the concurrent ones.
	ref, err := Build(d, Options{DefaultLeafDuration: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ref.Solve(SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Schedule, 3)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < 2 {
				got[i], _ = g.Solve(SolveOptions{Relax: true})
				return
			}
			run := g.Clone()
			leaf := d.Root.Leaves()[0]
			run.AddRuntimeLower(0, run.Begin(leaf), plan.StartOf(leaf), nil)
			got[i], _ = run.SolveFrom(plan, SolveOptions{Relax: true})
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s == nil {
			t.Fatalf("solve %d failed", i)
		}
		sameSchedule(t, d, s, plan)
	}
}

// warmDocs are the documents a warm reschedule is held to a cold solve
// on: the view-structure corpus and the two NewsWeb documents the live
// workloads follow.
func warmDocs(t *testing.T) []*core.Document {
	var docs []*core.Document
	for _, spec := range append(structureSpecs,
		corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 6, Languages: 3},
		corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 8, Languages: 4}) {
		docs = append(docs, corpusDoc(t, spec))
	}
	return docs
}

// windowArc ends its carrier, leaf l, exactly when l begins:
// unsatisfiable while l has a duration.
func windowArc(l *core.Node, strict core.Strictness) core.SyncArc {
	return core.SyncArc{
		Source: l.PathString(), SrcEnd: core.Begin, Dest: "", DestEnd: core.End,
		Offset: units.MS(0), MinDelay: units.MS(0), MaxDelay: units.MS(0), Strict: strict,
	}
}

// TestWarmRescheduleMatchesCold pins the warm start's contract: the last
// plan's times seed the sweep, and the answer is still the cold one. On
// every document an edit script — duration edits, a May arc that turns
// unsatisfiable, satisfiable (so the seed violates an arc the last plan
// dropped) and unsatisfiable again, a Must conflict, insert, delete and
// move — is absorbed by Reschedule, and after every step the times, the
// victims in order and any conflict report equal a cold Build + Solve.
func TestWarmRescheduleMatchesCold(t *testing.T) {
	bopts := Options{DefaultLeafDuration: 500 * time.Millisecond}
	sopts := SolveOptions{Relax: true}
	var seeded, dropThenKept, conflicts int
	for i, d := range warmDocs(t) {
		rng := rand.New(rand.NewSource(int64(49 + i)))
		// The window arc's carrier, whose duration the script toggles.
		leaves := d.Root.Leaves()
		carrier := leaves[len(leaves)/2]
		s, err := NewSolver(d, bopts, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Schedule(); err != nil {
			t.Fatal(err)
		}
		randomNode := func(leaf bool) *core.Node {
			var nodes []*core.Node
			d.Root.Walk(func(n *core.Node) bool {
				if n != carrier && n.Type.IsLeaf() == leaf && !n.IsRoot() {
					nodes = append(nodes, n)
				}
				return true
			})
			return nodes[rng.Intn(len(nodes))]
		}
		carrierArcs := func() int {
			arcs, _ := carrier.Arcs()
			return len(arcs)
		}
		randomDuration := func() error {
			return edit.SetAttr(d, randomNode(true).PathString(), "duration", attr.Quantity(units.MS(int64(100+rng.Intn(900)))))
		}
		carrierDuration := func(ms int64) func() error {
			return func() error {
				return edit.SetAttr(d, carrier.PathString(), "duration", attr.Quantity(units.MS(ms)))
			}
		}
		var arcDropped bool
		windowAt := -1
		steps := []struct {
			name string
			do   func() error
		}{
			{"duration", randomDuration},
			{"add may window", func() error {
				windowAt = carrierArcs()
				return edit.AddArc(d, carrier.PathString(), windowArc(carrier, core.May))
			}},
			{"window satisfiable", carrierDuration(0)},
			{"window unsatisfiable", carrierDuration(300)},
			{"add must window", func() error { return edit.AddArc(d, carrier.PathString(), windowArc(carrier, core.Must)) }},
			{"remove must window", func() error { return edit.RemoveArc(d, carrier.PathString(), carrierArcs()-1) }},
			{"insert", func() error {
				p := randomNode(false)
				l := core.NewExt().SetName("w"+itoa(i)).SetAttr("file", attr.String("w.dat")).
					SetAttr("duration", attr.Quantity(units.MS(int64(50+rng.Intn(400)))))
				_, err := edit.InsertNode(d, p.PathString(), rng.Intn(p.NumChildren()+1), l)
				return err
			}},
			{"duration", randomDuration},
			{"delete", func() error {
				_, err := edit.DeleteNode(d, randomNode(true).PathString())
				return err
			}},
			{"move", func() (err error) {
				// A target may already hold a child of the same name.
				for try := 0; try < 20; try++ {
					if _, err = edit.MoveNode(d, randomNode(true).PathString(), randomNode(false).PathString(), 0); err == nil {
						break
					}
				}
				return err
			}},
			{"window satisfiable", carrierDuration(0)},
			{"remove may window", func() error { return edit.RemoveArc(d, carrier.PathString(), windowAt) }},
		}
		for k, step := range steps {
			label := "doc " + itoa(i) + " step " + itoa(k) + " (" + step.name + ")"
			if err := step.do(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if s.last != nil && s.last.graph == s.g {
				seeded++
			}
			got, errGot := s.Reschedule()
			cold, err := Build(d, bopts)
			if err != nil {
				if errGot == nil {
					t.Fatalf("%s: Reschedule succeeded where Build fails: %v", label, err)
				}
				continue
			}
			want, errWant := cold.Solve(sopts)
			if errWant != nil || errGot != nil {
				if errWant == nil || errGot == nil || errWant.Error() != errGot.Error() {
					t.Fatalf("%s: Reschedule error %v, cold solve error %v", label, errGot, errWant)
				}
				conflicts++
				continue
			}
			sameSchedule(t, d, got, want)
			if len(got.Dropped) != len(want.Dropped) {
				t.Fatalf("%s: dropped %v, cold solve %v", label, got.Dropped, want.Dropped)
			}
			for j := range got.Dropped {
				if got.Dropped[j] != want.Dropped[j] {
					t.Fatalf("%s: dropped[%d] = %v, cold solve %v", label, j, got.Dropped[j], want.Dropped[j])
				}
			}
			window := false
			for _, r := range got.Dropped {
				window = window || r.Node == carrier && r.Index == windowAt
			}
			if step.name == "window satisfiable" && arcDropped && !window {
				dropThenKept++
			}
			arcDropped = window
		}
	}
	t.Logf("%d seeded reschedules, %d kept a window arc the last plan dropped, %d conflicts", seeded, dropThenKept, conflicts)
	if seeded < 100 || dropThenKept < 20 || conflicts < 10 {
		t.Error("the script no longer exercises seeded passes, re-admitted arcs and conflicts; the equivalence is vacuous")
	}
}

// TestEarliestMatchesOracle holds extraction to the oracle's least
// solution on hand-built systems, solved cold and from seeds that satisfy
// nothing in particular: an unreachable event, a zero-weight cycle, equal
// keys, masked arcs and runtime constraints listed after the plan's.
func TestEarliestMatchesOracle(t *testing.T) {
	lo := func(u, v EventID, w time.Duration) Constraint { return Constraint{U: v, V: u, W: -w} }
	hi := func(u, v EventID, w time.Duration) Constraint { return Constraint{U: u, V: v, W: w} }
	rt := func(c Constraint) Constraint { c.Kind = KindRuntime; return c }
	cases := []struct {
		name       string
		n          int
		head, tail []Constraint
		masked     []bool
	}{
		{"unreachable", 3, []Constraint{lo(0, 1, 5), hi(1, 2, 3)}, nil, nil},
		{"zero-weight cycle", 4, []Constraint{
			lo(0, 1, 5), hi(0, 1, 5), lo(1, 2, 0), hi(1, 2, 0), lo(2, 3, 2), hi(3, 2, 0), lo(3, 1, -7),
		}, nil, nil},
		{"equal keys", 6, []Constraint{
			lo(0, 1, 2), lo(0, 2, 2), lo(1, 3, 1), lo(2, 3, 1), lo(0, 4, 3), lo(4, 5, 0), lo(3, 5, 0), hi(0, 5, 3),
		}, nil, nil},
		{"masked", 4, []Constraint{lo(0, 1, 4), lo(1, 2, 9), lo(0, 2, 1), lo(2, 3, 1), hi(0, 3, 3)}, nil,
			[]bool{false, true, false, false, true}},
		{"runtime", 4, []Constraint{lo(0, 1, 4), lo(1, 2, 1), hi(0, 3, 20)},
			[]Constraint{rt(lo(0, 2, 12)), rt(lo(2, 3, 0)), rt(lo(0, 3, 3))}, nil},
	}
	rng := rand.New(rand.NewSource(49))
	for _, c := range cases {
		var kept []*Constraint
		all := append(append([]Constraint(nil), c.head...), c.tail...)
		for i := range all {
			if c.masked == nil || !c.masked[i] {
				kept = append(kept, &all[i])
			}
		}
		want := oracleLeast(c.n, kept)
		for trial := 0; trial < 20; trial++ {
			sc := &solveScratch{masked: c.masked}
			if trial > 0 {
				sc.seed = make([]time.Duration, rng.Intn(c.n+1))
				for v := range sc.seed {
					sc.seed[v] = time.Duration(rng.Intn(41) - 20)
				}
			}
			dist, dropped, conflict := sc.solve(c.n, 0, conList{c.head, c.tail}, true)
			if conflict != nil || dropped != nil {
				t.Fatalf("%s: conflict %v, dropped %v", c.name, conflict, dropped)
			}
			for v := range want {
				if got := timeOf(dist[v]); got != want[v] {
					t.Errorf("%s trial %d: event %d at %v, least solution %v", c.name, trial, v, got, want[v])
				}
			}
		}
	}
}
