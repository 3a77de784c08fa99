package sched

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/units"
)

// allocated reports the bytes f allocates, by the TotalAlloc delta.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func corpusDoc(t testing.TB, spec corpus.Spec) *core.Document {
	t.Helper()
	d, _, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSolveAllocationCeiling pins the relax loop's ownership rule: one arena
// per Solve call, reused across every admission, so what a solve allocates
// does not scale with the arcs it drops. DeepNest 2/6 drops 25; the solve
// allocates about 99 KB (87 KB before its adjacency carried each edge's
// head and weight, 223 KB when each victim cost a cold sweep).
func TestSolveAllocationCeiling(t *testing.T) {
	d := corpusDoc(t, corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6})
	g, err := Build(d, Options{DefaultLeafDuration: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		s, err := g.Solve(SolveOptions{Relax: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Dropped) != 25 {
			t.Fatalf("dropped %d arcs, want 25", len(s.Dropped))
		}
	}
	solve() // warm-up
	const calls, ceiling = 4, 256 << 10
	per := allocated(func() {
		for i := 0; i < calls; i++ {
			solve()
		}
	}) / calls
	t.Logf("Solve allocated %d bytes per call, ceiling %d", per, ceiling)
	if per >= ceiling {
		t.Error("one Solve call allocates past its ceiling")
	}
}

// TestRescheduleSteadyStateCeiling pins the Solver's: it owns its arena
// and edge layout for life, so absorbing an edit patches the graph and
// re-solves it without rebuilding either. It holds for each of the
// author-live workload's op kinds on its document: a one-leaf duration
// edit, a May arc added or removed, and a leaf inserted or deleted, each
// pass answered warm. It holds too for a one-leaf duration edit on
// DeepNest 2/6, whose 25 victims send every pass cold: a cold pass runs
// over the kept layout, so it lays nothing out and flattens nothing. It
// allocates about 15 KB, mostly the schedule and its victims; one more
// edge layout (about 33 KB) or flat list (65 KB) breaks its 24 KB ceiling.
func TestRescheduleSteadyStateCeiling(t *testing.T) {
	newsweb := corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 6, Languages: 3}
	duration := func(d *core.Document) []func(int) error {
		leaf := d.Root.Leaves()[0].PathString()
		return []func(int) error{func(i int) error {
			return edit.SetAttr(d, leaf, "duration", attr.Quantity(units.MS(int64(700+i))))
		}}
	}
	kinds := []struct {
		name    string
		doc     corpus.Spec
		edits   func(*core.Document) []func(int) error
		warm    bool
		ceiling uint64
	}{
		{"duration", newsweb, duration, true, 64 << 10},
		{"arc-pair", newsweb, func(d *core.Document) []func(int) error { p := livePairs(t, d); return p.arc[:] }, true, 64 << 10},
		{"insert-pair", newsweb, func(d *core.Document) []func(int) error { p := livePairs(t, d); return p.insert[:] }, true, 64 << 10},
		{"deepnest-duration", corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6}, duration, false, 24 << 10},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			d := corpusDoc(t, k.doc)
			s, err := NewSolver(d, Options{DefaultLeafDuration: 500 * time.Millisecond}, SolveOptions{Relax: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Schedule(); err != nil {
				t.Fatal(err)
			}
			edits := k.edits(d)
			pass := func(i int) {
				if err := edits[i%len(edits)](i); err != nil {
					t.Fatal(err)
				}
				sch, err := s.Reschedule()
				if err != nil {
					t.Fatal(err)
				}
				warm := 0
				if k.warm {
					warm = i + 1
				} else if len(sch.Dropped) == 0 {
					t.Fatalf("pass %d dropped nothing; the cold case is vacuous", i)
				}
				if s.rebuilds != 0 || s.solves != i+2 || s.warm != warm {
					t.Fatalf("pass %d: %d rebuilds, %d solves, %d warm; want the graph patched and solved once per pass, %d warm",
						i, s.rebuilds, s.solves, s.warm, warm)
				}
			}
			pass(0) // warm-up
			const passes = 100
			per := allocated(func() {
				for i := 1; i <= passes; i++ {
					pass(i)
				}
			}) / passes
			t.Logf("edit + Reschedule allocated %d bytes per pass, ceiling %d", per, k.ceiling)
			if per >= k.ceiling {
				t.Error("a steady-state reschedule pass allocates past its ceiling")
			}
		})
	}
}
