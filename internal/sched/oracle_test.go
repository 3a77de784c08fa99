package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/units"
)

// The oracle judges a relaxing solve by what its answer should be, not by
// another solver path. It is a plain Bellman–Ford over the flat constraint
// list and shares no code with solve.go. Given the constraints a solve was
// entitled to relax (base) and the arcs it dropped, it checks four
// properties:
//
//  1. every kept constraint holds;
//  2. the times are the least solution of the kept set with the root's
//     begin at zero (an event with no lower bound sits at zero);
//  3. no drop is gratuitous: re-admitting any single victim is infeasible;
//  4. with at most 12 May arcs, an exhaustive search over drop sets confirms
//     the kept set is the first maximal feasible one in constraint-list
//     order — the lexicographically greatest, reading the first arc as the
//     most significant bit.

// oracleArc names one explicit arc: its carrier and position.
type oracleArc struct {
	node  *core.Node
	index int
}

func oracleKeyOf(c *Constraint) oracleArc { return oracleArc{c.Arc.Node, c.Arc.Index} }

func oracleMay(c *Constraint) bool { return c.Kind == KindArc && c.Arc.Arc.Strict == core.May }

// oracleKept lists pointers to base's constraints minus every constraint
// of the dropped arcs.
func oracleKept(base []Constraint, dropped map[oracleArc]bool) []*Constraint {
	kept := make([]*Constraint, 0, len(base))
	for i := range base {
		if c := &base[i]; c.Kind != KindArc || !dropped[oracleKeyOf(c)] {
			kept = append(kept, c)
		}
	}
	return kept
}

// oracleWithout copies cons minus every constraint of the listed arcs.
func oracleWithout(cons []Constraint, refs []ArcRef) []Constraint {
	drop := map[oracleArc]bool{}
	for _, r := range refs {
		drop[oracleArc{r.Node, r.Index}] = true
	}
	var out []Constraint
	for _, c := range oracleKept(cons, drop) {
		out = append(out, *c)
	}
	return out
}

// oracleFeasible relaxes every constraint from all-zero labels (a virtual
// source) until nothing changes; still changing after n+1 passes means a
// negative cycle.
func oracleFeasible(n int, cons []*Constraint) bool {
	d := make([]int64, n)
	for pass := 0; pass <= n; pass++ {
		changed := false
		for _, c := range cons {
			if nd := d[c.U] + int64(c.W); nd < d[c.V] {
				d[c.V], changed = nd, true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// oracleLeast returns the least solution of a feasible cons with t[0] = 0:
// t[v] = −(shortest path v → 0), zero where no path leads to event 0.
func oracleLeast(n int, cons []*Constraint) []time.Duration {
	const inf = int64(math.MaxInt64)
	d := make([]int64, n)
	for i := range d {
		d[i] = inf
	}
	d[0] = 0
	for pass := 0; pass < n; pass++ {
		changed := false
		for _, c := range cons {
			if d[c.V] != inf {
				if nd := d[c.V] + int64(c.W); nd < d[c.U] {
					d[c.U], changed = nd, true
				}
			}
		}
		if !changed {
			break
		}
	}
	times := make([]time.Duration, n)
	for v, dv := range d {
		if dv != inf {
			times[v] = -time.Duration(dv)
		}
	}
	return times
}

// oracleMays lists base's distinct May arcs in constraint-list order.
func oracleMays(base []Constraint) []oracleArc {
	var mays []oracleArc
	seen := map[oracleArc]bool{}
	for i := range base {
		if c := &base[i]; oracleMay(c) && !seen[oracleKeyOf(c)] {
			seen[oracleKeyOf(c)] = true
			mays = append(mays, oracleKeyOf(c))
		}
	}
	return mays
}

// checkOracle holds one relaxing solve of g to the oracle. base is what
// the solve was free to relax — g's constraints minus any arcs dropped
// before it (a plan's, for SolveFrom) — and victims the arcs it dropped
// from base. exhaustive enables property 4. It returns whether the solve
// dropped anything.
func checkOracle(t *testing.T, label string, g *Graph, base []Constraint, sch *Schedule, victims []ArcRef, exhaustive bool) bool {
	t.Helper()
	n := g.NumEvents()
	dropped := map[oracleArc]bool{}
	for _, r := range victims {
		k := oracleArc{r.Node, r.Index}
		if r.Arc.Strict != core.May || dropped[k] {
			t.Fatalf("%s: victim %v is not a May arc, or listed twice", label, r)
		}
		dropped[k] = true
	}
	kept := oracleKept(base, dropped)

	// 1. Every kept constraint holds.
	times := sch.Times()
	for _, c := range kept {
		if times[c.V]-times[c.U] > c.W {
			t.Fatalf("%s: kept constraint violated: %s", label, c.Note())
		}
	}
	// 2. The times are the kept set's least solution.
	least := oracleLeast(n, kept)
	for v := range least {
		if g.Event(EventID(v)).Node != nil && times[v] != least[v] {
			t.Fatalf("%s: %s at %v, least solution %v", label, g.Event(EventID(v)), times[v], least[v])
		}
	}
	// 3. No drop is gratuitous.
	for _, r := range victims {
		k := oracleArc{r.Node, r.Index}
		delete(dropped, k)
		if oracleFeasible(n, oracleKept(base, dropped)) {
			t.Fatalf("%s: gratuitous drop: %v holds together with every kept constraint", label, r)
		}
		dropped[k] = true
	}
	// 4. The kept set is the first maximal feasible one.
	if mays := oracleMays(base); exhaustive && len(mays) <= 12 {
		k := len(mays)
		for mask := 1<<k - 1; mask >= 0; mask-- {
			drop := map[oracleArc]bool{}
			for i, a := range mays {
				if mask>>(k-1-i)&1 == 0 {
					drop[a] = true
				}
			}
			if !oracleFeasible(n, oracleKept(base, drop)) {
				continue
			}
			for _, a := range mays {
				if drop[a] != dropped[a] {
					t.Fatalf("%s: dropped %v; the first maximal feasible set drops %v", label, victims, drop)
				}
			}
			break
		}
	}
	return len(victims) > 0
}

// checkOracleConflict holds a solve that failed to the oracle: relaxation
// gives up only when the constraints it may not drop are infeasible.
func checkOracleConflict(t *testing.T, label string, g *Graph, base []Constraint, relax bool, err error) {
	t.Helper()
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: %v", label, err)
	}
	var hard []*Constraint
	for i := range base {
		if c := &base[i]; !relax || !oracleMay(c) {
			hard = append(hard, c)
		}
	}
	if oracleFeasible(g.NumEvents(), hard) {
		t.Fatalf("%s: conflict reported, but the constraints relaxation may not drop are feasible", label)
	}
}

// oracleDoc is randomDoc plus up to eight root-relative or leaf-to-leaf
// windows, most of them May, so relaxation has conflicts to resolve.
func oracleDoc(t *testing.T, rng *rand.Rand) *core.Document {
	d := randomDoc(t, rng)
	leaves := d.Root.Leaves()
	for k := rng.Intn(9); k > 0; k-- {
		a := core.SyncArc{
			Source: "/", SrcEnd: core.Begin, Dest: "", DestEnd: core.EndPoint(rng.Intn(2)),
			Offset: units.MS(int64(rng.Intn(800))), MinDelay: units.MS(0),
			MaxDelay: units.MS(int64(rng.Intn(300))), Strict: core.May,
		}
		if rng.Intn(5) == 0 {
			a.Strict = core.Must
		}
		if src := leaves[rng.Intn(len(leaves))]; rng.Intn(2) == 0 {
			a.Source, a.SrcEnd = src.PathString(), core.EndPoint(rng.Intn(2))
		}
		leaves[rng.Intn(len(leaves))].AddArc(a)
	}
	return d
}

// oracleSolve runs a cold Solve through the oracle and returns the plan,
// or nil when it ended in a (checked) conflict.
func oracleSolve(t *testing.T, label string, g *Graph, relax, exhaustive bool) *Schedule {
	t.Helper()
	sch, err := g.Solve(SolveOptions{Relax: relax})
	if err != nil {
		checkOracleConflict(t, label, g, g.Constraints(), relax, err)
		return nil
	}
	if !relax && len(sch.Dropped) > 0 {
		t.Fatalf("%s: dropped %v without relaxation", label, sch.Dropped)
	}
	checkOracle(t, label, g, g.Constraints(), sch, sch.Dropped, exhaustive)
	return sch
}

// TestSolveOracle holds every relaxing path — Solve, SolveFrom unperturbed
// and under random latencies, Solver.Schedule and Solver.Reschedule after
// random duration edits — to the oracle on the golden corpus and on 1,000
// random documents.
func TestSolveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	type entry struct {
		d          *core.Document
		exhaustive bool
	}
	var docs []entry
	for _, spec := range goldenSpecs {
		docs = append(docs, entry{corpusDoc(t, spec), false})
	}
	for len(docs) < len(goldenSpecs)+1000 {
		docs = append(docs, entry{oracleDoc(t, rng), true})
	}
	var solves, relaxed, further, conflicts int
	for i, e := range docs {
		d := e.d
		bopts := Options{DefaultLeafDuration: 500 * time.Millisecond}
		if i >= len(goldenSpecs) {
			bopts.RigidLeaves, bopts.SeqGaps = rng.Intn(2) == 0, rng.Intn(3) == 0
		}
		g, err := Build(d, bopts)
		if err != nil {
			continue // a random arc failed to resolve; not this test's topic
		}
		label := "doc " + itoa(i)
		oracleSolve(t, label+" strict", g, false, e.exhaustive)
		plan := oracleSolve(t, label, g, true, e.exhaustive)
		solves++
		if plan == nil {
			conflicts++
			continue
		}
		if len(plan.Dropped) > 0 {
			relaxed++
		}

		// SolveFrom: the plan's arcs stay dropped; the oracle judges the
		// further victims against the rest.
		opts := SolveOptions{Relax: true}
		same, err := g.SolveFrom(plan, nil, nil, opts)
		if err != nil {
			t.Fatalf("%s: re-solving the plan's own graph: %v", label, err)
		}
		checkOracle(t, label+" SolveFrom", g, oracleWithout(g.Constraints(), plan.Dropped), same, same.Dropped[len(plan.Dropped):], e.exhaustive)
		var bounds []Constraint
		for _, l := range d.Root.Leaves() {
			if rng.Intn(3) > 0 {
				lat := time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
				bounds = append(bounds, RuntimeLower(0, g.Begin(l), plan.StartOf(l)+lat, func() string { return "latency on " + l.PathString() }))
			}
		}
		base := oracleWithout(append(g.Constraints(), bounds...), plan.Dropped)
		if got, err := g.SolveFrom(plan, bounds, nil, opts); err != nil {
			checkOracleConflict(t, label+" SolveFrom latencies", g, base, true, err)
		} else if checkOracle(t, label+" SolveFrom latencies", g, base, got, got.Dropped[len(plan.Dropped):], e.exhaustive) {
			further++
		}

		// Solver: a full pass, then duration edits.
		s, err := NewSolver(d, bopts, opts)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := s.Schedule()
		if err != nil {
			t.Fatalf("%s: Solver.Schedule: %v", label, err)
		}
		checkOracle(t, label+" Solver.Schedule", s.Graph(), s.Graph().Constraints(), sch, sch.Dropped, e.exhaustive)
		leaves := d.Root.Leaves()
		for k := 0; k < 3; k++ {
			l := leaves[rng.Intn(len(leaves))]
			if err := edit.SetAttr(d, l.PathString(), "duration", attr.Quantity(units.MS(int64(20+rng.Intn(900))))); err != nil {
				t.Fatal(err)
			}
			sch, err := s.Reschedule()
			if err != nil {
				checkOracleConflict(t, label+" Reschedule", s.Graph(), s.Graph().Constraints(), true, err)
				break
			}
			checkOracle(t, label+" Reschedule", s.Graph(), s.Graph().Constraints(), sch, sch.Dropped, e.exhaustive)
		}
	}
	t.Logf("%d documents: %d relaxed, %d dropped further arcs under latencies, %d ended in a Must conflict", solves, relaxed, further, conflicts)
	if solves < 1000 || relaxed < 100 || further == 0 || conflicts == 0 {
		t.Error("the corpus no longer exercises relaxation, further drops and conflicts; the oracle is vacuous")
	}
}

// FuzzSolveOracle holds a relaxing Solve of a random document, seeded by
// the fuzz input, to the oracle's first three properties. The same input
// then drives a 16-step edit script — attribute edits (duration, channel,
// style), insert, delete, move, arc add and remove, rename — absorbing
// one to three edits per step, so a warm pass checks several changed
// blocks at once. After each step Solver.Reschedule must agree with a
// cold Build + Solve of the edited document (the same times, the same
// victims in order, the same failure) and pass the oracle.
func FuzzSolveOracle(f *testing.F) {
	// Seed 26 reports a victim whose arc an edit rewrote; 1572 deletes
	// the target of an arc, which must fail the reschedule as it fails
	// Build.
	for _, seed := range []int64{1, 26, 39, 206, 1572, 1991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d := oracleDoc(t, rng)
		bopts := Options{DefaultLeafDuration: 500 * time.Millisecond, RigidLeaves: rng.Intn(2) == 0}
		g, err := Build(d, bopts)
		if err != nil {
			return
		}
		oracleSolve(t, "fuzz", g, true, false)

		fuzzDictionaries(d)
		s, err := NewSolver(d, bopts, SolveOptions{Relax: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Schedule(); err != nil {
			checkOracleConflict(t, "fuzz Solver.Schedule", s.Graph(), s.Graph().Constraints(), true, err)
		}
		for step := 0; step < 16; step++ {
			edited := false
			for k := 1 + rng.Intn(3); k > 0; k-- {
				edited = fuzzEdit(rng, d, step) || edited
			}
			if !edited {
				continue
			}
			label := "fuzz edit " + itoa(step)
			got, errGot := s.Reschedule()
			cold, err := Build(d, bopts)
			if err != nil {
				if errGot == nil {
					t.Fatalf("%s: Reschedule succeeded where Build fails: %v", label, err)
				}
				continue
			}
			want, errWant := cold.Solve(SolveOptions{Relax: true})
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s: Reschedule error %v, cold solve error %v", label, errGot, errWant)
			}
			if errWant != nil {
				checkOracleConflict(t, label, cold, cold.Constraints(), true, errWant)
				continue
			}
			sameSchedule(t, d, got, want)
			if len(got.Dropped) != len(want.Dropped) {
				t.Fatalf("%s: dropped %v, cold solve %v", label, got.Dropped, want.Dropped)
			}
			for i := range got.Dropped {
				if got.Dropped[i] != want.Dropped[i] {
					t.Fatalf("%s: dropped[%d] = %v, cold solve %v", label, i, got.Dropped[i], want.Dropped[i])
				}
			}
			checkOracle(t, label, s.Graph(), s.Graph().Constraints(), got, got.Dropped, false)
		}
	})
}

// fuzzDictionaries gives d a 50 fps channel beside doc's three, and two
// styles that pick a video channel, so channel and style edits change the
// rates frame quantities convert with.
func fuzzDictionaries(d *core.Document) {
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo, Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "fastvideo", Medium: core.MediumVideo, Rates: units.Rates{FrameRate: 50}})
	cd.Define(core.Channel{Name: "sound", Medium: core.MediumAudio, Rates: units.Rates{SampleRate: 8000}})
	cd.Define(core.Channel{Name: "text", Medium: core.MediumText})
	d.SetChannels(cd)
	sd := attr.NewStyleDict()
	for _, st := range [][2]string{{"slow", "video"}, {"fast", "fastvideo"}} {
		l := attr.List{}
		l.Set("channel", attr.ID(st[1]))
		sd.Define(st[0], l)
	}
	d.SetStyles(sd)
}

// fuzzEdit applies one random edit to d through internal/edit and reports
// whether the edit engine accepted it. Inserted leaves take their channel
// from a style, and durations and offsets are in frames half the time.
func fuzzEdit(rng *rand.Rand, d *core.Document, step int) bool {
	var nodes, composites []*core.Node
	d.Root.Walk(func(n *core.Node) bool {
		nodes = append(nodes, n)
		if !n.Type.IsLeaf() {
			composites = append(composites, n)
		}
		return true
	})
	n, p := nodes[rng.Intn(len(nodes))], composites[rng.Intn(len(composites))]
	qty := func(max int) units.Quantity {
		if rng.Intn(2) == 0 {
			return units.Q(int64(rng.Intn(max/40+1)), units.Frames)
		}
		return units.MS(int64(rng.Intn(max)))
	}
	var err error
	switch rng.Intn(9) {
	case 0:
		err = edit.SetAttr(d, n.PathString(), "duration", attr.Quantity(qty(900)))
	case 1:
		err = edit.SetAttr(d, n.PathString(), "channel", attr.ID([]string{"video", "fastvideo", "sound", "text"}[rng.Intn(4)]))
	case 2:
		err = edit.SetAttr(d, n.PathString(), "style", attr.ID([]string{"slow", "fast"}[rng.Intn(2)]))
	case 3:
		l := core.NewExt().SetName("f"+itoa(step)).
			SetAttr("style", attr.ID("slow")).
			SetAttr("file", attr.String("f.dat")).
			SetAttr("duration", attr.Quantity(qty(400)))
		_, err = edit.InsertNode(d, p.PathString(), rng.Intn(p.NumChildren()+3)-1, l)
	case 4:
		_, err = edit.DeleteNode(d, n.PathString())
	case 5:
		_, err = edit.MoveNode(d, n.PathString(), p.PathString(), rng.Intn(p.NumChildren()+1))
	case 6:
		a := core.SyncArc{
			Source: nodes[rng.Intn(len(nodes))].PathString(), SrcEnd: core.EndPoint(rng.Intn(2)),
			Dest: "", DestEnd: core.EndPoint(rng.Intn(2)),
			Offset: qty(600), MinDelay: units.MS(0), MaxDelay: units.InfiniteQuantity(), Strict: core.May,
		}
		if rng.Intn(2) == 0 {
			a.MaxDelay = units.MS(int64(rng.Intn(300)))
		}
		if rng.Intn(4) == 0 {
			a.Strict = core.Must
		}
		err = edit.AddArc(d, n.PathString(), a)
	case 7:
		arcs, _ := n.Arcs()
		if len(arcs) == 0 {
			return false
		}
		err = edit.RemoveArc(d, n.PathString(), rng.Intn(len(arcs)))
	case 8:
		_, err = edit.RenameNode(d, n.PathString(), "r"+itoa(step))
	}
	return err == nil
}
