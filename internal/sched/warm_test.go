package sched

import (
	"math/rand"
	"slices"
	"strings"
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
// first solves of one graph, and a play re-solving it beside them, only
// read it. Run under -race.
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
			leaf := d.Root.Leaves()[0]
			bounds := []Constraint{RuntimeLower(0, g.Begin(leaf), plan.StartOf(leaf), nil)}
			got[i], _ = g.SolveFrom(plan, bounds, nil, SolveOptions{Relax: true})
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
			sc := &solveScratch{}
			for _, out := range c.masked {
				sc.on = append(sc.on, !out)
			}
			if trial > 0 {
				sc.seed = make([]time.Duration, rng.Intn(c.n+1))
				for v := range sc.seed {
					sc.seed[v] = time.Duration(rng.Intn(41) - 20)
				}
			}
			dist, dropped, conflict := sc.solve(c.n, 0, conList{head: c.head, tail: c.tail}, true)
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

// liveAuthor edits a document the way the author-live workload's author
// does, through internal/edit: durations set on immediate leaves, a May
// arc from an arc-free leaf to its previous sibling added and later
// removed, a copy of a leaf inserted and later deleted, and an inserted
// external leaf naming a block of its own.
type liveAuthor struct {
	d          *core.Document
	rng        *rand.Rand
	attrLeaves []string
	plain      [][2]string // an arc-free leaf and its previous sibling's name
	ext        string      // an external leaf to model block inserts on
	inserted   []string    // FIFO of inserted nodes
	arcs       []string    // FIFO of leaves holding an added arc
	n          int
}

func newLiveAuthor(t *testing.T, d *core.Document, seed int64) *liveAuthor {
	a := &liveAuthor{d: d, rng: rand.New(rand.NewSource(seed))}
	d.Root.Walk(func(n *core.Node) bool {
		switch {
		case n.Type == core.Imm && n.Attrs.Has("duration"):
			a.attrLeaves = append(a.attrLeaves, n.PathString())
			if prev := n.PrevSibling(); prev != nil && prev.Name() != "" && !n.Attrs.Has("syncarcs") {
				a.plain = append(a.plain, [2]string{n.PathString(), prev.Name()})
			}
		case n.Type == core.Ext && a.ext == "":
			a.ext = n.PathString()
		}
		return true
	})
	if len(a.attrLeaves) == 0 || len(a.plain) == 0 || a.ext == "" {
		t.Fatal("document has no leaves to edit")
	}
	return a
}

// authorRound is the workload's op cycle: of 20 ops, 10 set a duration, 3
// add an arc, 3 remove one, 2 insert a leaf (one of them naming a new
// block) and 2 delete one.
const authorRound = "BSISASDSASRSDSASRSRS"

// next applies the cycle's next op.
func (a *liveAuthor) next(t *testing.T) {
	kind := authorRound[a.n%len(authorRound)]
	a.n++
	if kind == 'R' && len(a.arcs) == 0 || kind == 'D' && len(a.inserted) == 0 {
		kind = 'S'
	}
	parent := func(path string) string {
		if i := strings.LastIndexByte(path, '/'); i > 0 {
			return path[:i]
		}
		return "/"
	}
	insert := func(model string, child func(*core.Node) *core.Node) {
		m, err := a.d.Root.Resolve(model)
		if err != nil {
			t.Fatal(err)
		}
		c := child(m.Clone().SetName("ins-" + itoa(a.n)))
		if _, err := edit.InsertNode(a.d, parent(model), -1, c); err != nil {
			t.Fatal(err)
		}
		a.inserted = append(a.inserted, strings.TrimSuffix(parent(model), "/")+"/"+c.Name())
	}
	var err error
	switch kind {
	case 'S':
		err = edit.SetAttr(a.d, a.attrLeaves[a.rng.Intn(len(a.attrLeaves))], "duration",
			attr.Quantity(units.MS(int64(1500+a.rng.Intn(2500)))))
	case 'A':
		p := a.plain[a.rng.Intn(len(a.plain))]
		err = edit.AddArc(a.d, p[0], core.SyncArc{
			DestEnd: core.Begin, Strict: core.May, Source: "../" + p[1], SrcEnd: core.End,
			MaxDelay: units.MS(int64(100 + a.rng.Intn(400))),
		})
		a.arcs = append(a.arcs, p[0])
	case 'R':
		err = edit.RemoveArc(a.d, a.arcs[0], 0)
		a.arcs = a.arcs[1:]
	case 'I':
		insert(a.plain[a.rng.Intn(len(a.plain))][0], func(c *core.Node) *core.Node {
			return c.SetAttr("duration", attr.Quantity(units.MS(int64(1500+a.rng.Intn(2500)))))
		})
	case 'B':
		insert(a.ext, func(c *core.Node) *core.Node {
			c.Attrs.Del("syncarcs")
			return c.SetAttr("file", attr.String("live-"+itoa(a.n)+".blk"))
		})
	case 'D':
		_, err = edit.DeleteNode(a.d, a.inserted[0])
		a.inserted = a.inserted[1:]
	}
	if err != nil {
		t.Fatalf("op %d (%c): %v", a.n, kind, err)
	}
}

// TestWarmPassMatchesCold runs 420 seeded steps of the author-live op mix
// on NewsWeb 6/3, some steps batching two or three edits into one
// Reschedule, with a May window that forces a victim and a Must window
// that forces a conflict, each added and then removed. After every step
// the times, the victims in order and any conflict report equal a cold
// Build + Solve. Every step whose last plan dropped nothing, and whose
// answer meets no cycle, must be answered by the warm pass; a step that
// meets one falls back, and the warm pass resumes once a plan drops
// nothing again.
func TestWarmPassMatchesCold(t *testing.T) {
	bopts := Options{DefaultLeafDuration: 500 * time.Millisecond}
	sopts := SolveOptions{Relax: true}
	d := corpusDoc(t, corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 6, Languages: 3})
	author := newLiveAuthor(t, d, 55)
	s, err := NewSolver(d, bopts, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(); err != nil {
		t.Fatal(err)
	}
	carrier := author.attrLeaves[len(author.attrLeaves)/2]
	carrierNode, err := d.Root.Resolve(carrier)
	if err != nil {
		t.Fatal(err)
	}
	window := func(strict core.Strictness) func() {
		return func() {
			if err := edit.AddArc(d, carrier, windowArc(carrierNode, strict)); err != nil {
				t.Fatal(err)
			}
		}
	}
	unwindow := func() {
		arcs, _ := carrierNode.Arcs()
		if err := edit.RemoveArc(d, carrier, len(arcs)-1); err != nil {
			t.Fatal(err)
		}
	}
	special := map[int]func(){
		100: window(core.May), 103: unwindow,
		200: window(core.Must), 201: unwindow,
		300: window(core.Must), 302: unwindow,
	}
	var warmSteps, fallbacks, conflicts, victims int
	for step := 0; step < 420; step++ {
		label := "step " + itoa(step)
		if do, ok := special[step]; ok {
			do()
		} else {
			for k := 1 + step%5/3 + step%7/6; k > 0; k-- {
				author.next(t)
			}
		}
		eligible := s.last != nil && len(s.last.Dropped) == 0
		warm0, solves0, rebuilds0 := s.warm, s.solves, s.rebuilds
		got, errGot := s.Reschedule()
		cold, err := Build(d, bopts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, errWant := cold.Solve(sopts)
		if errWant != nil || errGot != nil {
			if errWant == nil || errGot == nil || errWant.Error() != errGot.Error() {
				t.Fatalf("%s: Reschedule error %v, cold solve error %v", label, errGot, errWant)
			}
			if s.warm != warm0 {
				t.Fatalf("%s: the warm pass answered a conflict", label)
			}
			conflicts++
			if eligible {
				fallbacks++
			}
			continue
		}
		sameSchedule(t, d, got, want)
		sameRefs(t, got.Dropped, want.Dropped)
		switch {
		case len(want.Dropped) > 0:
			if s.warm != warm0 {
				t.Fatalf("%s: the warm pass answered a plan with victims", label)
			}
			victims++
			if eligible {
				fallbacks++
			}
		case eligible:
			if s.warm-warm0 != s.solves-solves0 || s.rebuilds != rebuilds0 {
				t.Fatalf("%s: %d solves, %d warm, %d rebuilds; want every solve warm", label,
					s.solves-solves0, s.warm-warm0, s.rebuilds-rebuilds0)
			}
			warmSteps += s.warm - warm0
		}
	}
	t.Logf("%d warm steps, %d fallbacks, %d plans with victims, %d conflicts", warmSteps, fallbacks, victims, conflicts)
	if warmSteps < 380 || fallbacks < 3 || victims < 3 || conflicts < 3 {
		t.Error("the script no longer exercises the warm pass, its fallbacks, victims and conflicts")
	}
}

// TestResweepMatchesOracle holds the warm sweep to the oracle on the
// hand-built systems of TestEarliestMatchesOracle, one with an event no
// lower bound reaches. Each system is solved cold on a prefix of its
// constraints; the rest are then laid out and checked from the prefix's
// labels. The labels must end feasible for every constraint and the
// times equal the least solution. In the "clamped" system the cold
// prefix schedules event 2 at zero, which breaks t2 ≤ t1 − 10; a sweep
// seeded from those times would leave that constraint violated, since
// no fresh constraint has its tail.
func TestResweepMatchesOracle(t *testing.T) {
	lo := func(u, v EventID, w time.Duration) Constraint { return Constraint{U: v, V: u, W: -w} }
	hi := func(u, v EventID, w time.Duration) Constraint { return Constraint{U: u, V: v, W: w} }
	cases := []struct {
		name string
		n    int
		cons []Constraint
	}{
		{"unreachable", 3, []Constraint{lo(0, 1, 5), hi(1, 2, 3)}},
		{"clamped", 4, []Constraint{lo(0, 1, 5), hi(1, 2, -10), lo(0, 3, 1), lo(3, 2, 30)}},
		{"zero-weight cycle", 4, []Constraint{
			lo(0, 1, 5), hi(0, 1, 5), lo(1, 2, 0), hi(1, 2, 0), lo(2, 3, 2), hi(3, 2, 0), lo(3, 1, -7),
		}},
		{"equal keys", 6, []Constraint{
			lo(0, 1, 2), lo(0, 2, 2), lo(1, 3, 1), lo(2, 3, 1), lo(0, 4, 3), lo(4, 5, 0), lo(3, 5, 0), hi(0, 5, 3),
		}},
		{"runtime", 4, []Constraint{lo(0, 1, 4), lo(1, 2, 1), hi(0, 3, 20), lo(0, 2, 12), lo(2, 3, 0), lo(0, 3, 3)}},
	}
	for _, c := range cases {
		var all []*Constraint
		for i := range c.cons {
			all = append(all, &c.cons[i])
		}
		want := oracleLeast(c.n, all)
		for k := 0; k < len(c.cons); k++ {
			sc := &solveScratch{}
			if _, _, conflict := sc.solve(c.n, 0, conList{head: c.cons[:k]}, false); conflict != nil {
				t.Fatalf("%s: prefix %d conflicts", c.name, k)
			}
			count := make([]int32, c.n)
			fwd := layOut(adjacency{}, count, c.n, conList{head: c.cons}, nil, false)
			rev := layOut(adjacency{}, count, c.n, conList{head: c.cons}, nil, true)
			dist := sc.resweep(&fwd, &rev, c.n, [][]Constraint{c.cons[k:]})
			if dist == nil {
				t.Fatalf("%s: prefix %d: the warm sweep met a cycle", c.name, k)
			}
			for _, con := range all {
				if sc.dist[con.V] > sc.dist[con.U]+int64(con.W) {
					t.Errorf("%s: prefix %d: labels violate %d→%d ≤ %v", c.name, k, con.U, con.V, con.W)
				}
			}
			for v := range want {
				if got := timeOf(dist[v]); got != want[v] {
					t.Errorf("%s prefix %d: event %d at %v, least solution %v", c.name, k, v, got, want[v])
				}
			}
		}
	}
}

// TestRescheduleWorkIsLocal counts the warm pass's work: on a par of 64
// seq arms of 16 leaves, lengthening a leaf of one arm relaxes labels only
// in that arm and at the root, where a cold sweep pops all 2,178 events.
func TestRescheduleWorkIsLocal(t *testing.T) {
	d := parOfSeq(t, 64, 16)
	s, err := NewSolver(d, Options{}, SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(); err != nil {
		t.Fatal(err)
	}
	arm := d.Root.Child(5)
	leaf := arm.Child(7)
	local := map[EventID]bool{s.g.Begin(d.Root): true, s.g.End(d.Root): true}
	arm.Walk(func(n *core.Node) bool {
		local[s.g.Begin(n)], local[s.g.End(n)] = true, true
		return true
	})
	for i := 1; i <= 10; i++ {
		if err := edit.SetAttr(d, leaf.PathString(), "duration", attr.Quantity(units.MS(int64(500+10*i)))); err != nil {
			t.Fatal(err)
		}
		warm := s.warm
		if _, err := s.Reschedule(); err != nil {
			t.Fatal(err)
		}
		if s.warm != warm+1 {
			t.Fatalf("pass %d was not warm", i)
		}
		// The sweep starts every path length at 0 and lengthens the path
		// of each event it lowers; a lowered event is popped, and so is
		// each queued tail, which is the leaf's own end.
		relaxed := 0
		for v, l := range s.sc.pathlen[:s.g.NumEvents()] {
			if l == 0 {
				continue
			}
			relaxed++
			if !local[EventID(v)] {
				t.Fatalf("pass %d relaxed %s, outside the edited arm", i, s.g.Event(EventID(v)))
			}
		}
		if relaxed == 0 {
			t.Fatalf("pass %d relaxed nothing; the count is vacuous", i)
		}
	}
}

// TestPlaysShareOneFlatList: a Solver's warm pass leaves its graph
// unflattened; the plays of the plan it returns flatten it once between
// them, even when they run at once, and otherwise leave the graph as it
// was: its constraints, their blocks and the order (run under -race).
func TestPlaysShareOneFlatList(t *testing.T) {
	d := corpusDoc(t, corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 6, Languages: 3})
	s, err := NewSolver(d, Options{DefaultLeafDuration: 500 * time.Millisecond}, SolveOptions{Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(); err != nil {
		t.Fatal(err)
	}
	leaf := d.Root.Leaves()[0]
	if err := edit.SetAttr(d, leaf.PathString(), "duration", attr.Quantity(units.MS(1234))); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Reschedule()
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graph()
	if g.order != nil {
		t.Fatal("the warm pass flattened the graph; the plays have nothing to share")
	}
	pool, blocks, count := slices.Clone(g.pool), slices.Clone(g.blocks), g.NumConstraints()
	play := func() {
		bounds := []Constraint{RuntimeLower(0, g.Begin(leaf), plan.StartOf(leaf)+time.Second, nil)}
		if _, err := g.SolveFrom(plan, bounds, nil, SolveOptions{Relax: true}); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			play()
		}()
	}
	wg.Wait()
	if len(g.order) == 0 {
		t.Fatal("the plays left the plan's graph unflattened")
	}
	order := g.order
	play()
	if &g.order[0] != &order[0] {
		t.Error("a later play flattened the graph again")
	}
	if blocksDiffer(g.pool, pool) || !slices.Equal(g.blocks, blocks) || g.NumConstraints() != count {
		t.Error("the plays changed the plan's graph")
	}
}
