package render

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/sched"
)

// TestRenderAllocationCeiling pins what the four views of one document
// allocate: the text, the two resolution walks (Tree's and ArcTable's)
// and the channel timeline, but no string per row or cell. When each view
// went through fmt and built its rows and cells as strings, Tree,
// Timeline, TOCText and ArcTable together allocated 3,710 objects
// (317,516 B) on DeepNest 2/6 and 2,196 (194,248 B) on Archive 20.
// Appending into one buffer each, they allocate 109 objects (191,768 B)
// and 71 (111,152 B); the ceilings are 256 objects and about 1.2× the
// bytes, 230 KB and 130 KB.
func TestRenderAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		spec       corpus.Spec
		resolution time.Duration // as pipeline.Run picks it
		bytes      uint64
	}{
		{corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6}, 500 * time.Millisecond, 230 << 10},
		{corpus.Spec{Shape: corpus.Archive, Seed: 201, Size: 20}, 15 * time.Second, 130 << 10},
	} {
		d, _, err := corpus.Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sched.Build(d, sched.Options{DefaultLeafDuration: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		s, err := g.Solve(sched.SolveOptions{Relax: true})
		if err != nil {
			t.Fatal(err)
		}
		views := func() {
			Tree(d)
			Timeline(s, TimelineOptions{Resolution: c.resolution})
			TOCText(s)
			ArcTable(d)
		}
		views()
		const calls, objects = 4, 256
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			views()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / calls
		objs := (after.Mallocs - before.Mallocs) / calls
		t.Logf("%v: the four views allocated %d bytes in %d objects; ceilings %d, %d", c.spec.Shape, bytes, objs, c.bytes, objects)
		if bytes >= c.bytes || objs >= objects {
			t.Errorf("%v: rendering allocates past its ceiling", c.spec.Shape)
		}
	}
}

// BenchmarkViews times each view on the two documents of
// TestRenderAllocationCeiling.
func BenchmarkViews(b *testing.B) {
	for _, spec := range []corpus.Spec{
		{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6},
		{Shape: corpus.Archive, Seed: 201, Size: 20},
	} {
		d, _, err := corpus.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		g, err := sched.Build(d, sched.Options{DefaultLeafDuration: 500 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		s, err := g.Solve(sched.SolveOptions{Relax: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			view func() string
		}{
			{"tree", func() string { return Tree(d) }},
			{"timeline", func() string { return Timeline(s, TimelineOptions{Resolution: time.Second}) }},
			{"toc", func() string { return TOCText(s) }},
			{"arcs", func() string { return ArcTable(d) }},
		} {
			b.Run(string(spec.Shape)+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.view()
				}
			})
		}
	}
}
