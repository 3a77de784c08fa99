package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/units"
)

// benchDoc builds a balanced par-of-seq document with leaves leaves and an
// explicit arc every arcEvery leaves.
func benchDoc(b *testing.B, leaves, arcEvery int) *core.Document {
	b.Helper()
	root := core.NewPar().SetName("root")
	const fan = 10
	seqCount := (leaves + fan - 1) / fan
	var allLeaves []*core.Node
	for s := 0; s < seqCount; s++ {
		seq := core.NewSeq().SetName(fmt.Sprintf("s%d", s)).
			SetAttr("channel", attr.ID("video"))
		for l := 0; l < fan && s*fan+l < leaves; l++ {
			leaf := core.NewExt().SetName(fmt.Sprintf("l%d", l)).
				SetAttr("file", attr.String("x.dat")).
				SetAttr("duration", attr.Quantity(units.MS(int64(100+l*10))))
			seq.AddChild(leaf)
			allLeaves = append(allLeaves, leaf)
		}
		root.AddChild(seq)
	}
	if arcEvery > 0 {
		for i := arcEvery; i < len(allLeaves); i += arcEvery {
			src := allLeaves[i-arcEvery]
			dst := allLeaves[i]
			dst.AddArc(core.SyncArc{
				DestEnd: core.Begin, Strict: core.May,
				Source: relPath(dst, src), SrcEnd: core.Begin, Dest: "",
				MaxDelay: units.InfiniteQuantity(),
			})
		}
	}
	d, err := core.NewDocument(root)
	if err != nil {
		b.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo,
		Rates: units.Rates{FrameRate: 25}})
	d.SetChannels(cd)
	return d
}

// relPath builds "../..-style" path from one leaf to another (both are
// seq/leaf depth 2 under the root).
func relPath(from, to *core.Node) string {
	return "../../" + to.Parent().Name() + "/" + to.Name()
}

// BenchmarkBuild measures constraint-graph construction.
func BenchmarkBuild(b *testing.B) {
	for _, leaves := range []int{100, 1000, 5000} {
		d := benchDoc(b, leaves, 10)
		b.Run(fmt.Sprintf("leaves-%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(d, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolve measures the earliest-schedule computation, which includes
// the negative-cycle feasibility pass.
func BenchmarkSolve(b *testing.B) {
	for _, leaves := range []int{100, 1000, 5000} {
		d := benchDoc(b, leaves, 10)
		g, err := Build(d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("leaves-%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.Solve(SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// structureSpecs are the eight documents cmifmark's view-structure workload
// schedules: three conflict-free Archive documents and five DeepNest ones
// whose May arcs conflict.
var structureSpecs = []corpus.Spec{
	{Shape: corpus.Archive, Seed: 201, Size: 20},
	{Shape: corpus.Archive, Seed: 202, Size: 20},
	{Shape: corpus.Archive, Seed: 203, Size: 20},
	{Shape: corpus.DeepNest, Seed: 204, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 205, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 207, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 208, Size: 2, Depth: 6},
}

// BenchmarkSolveCorpus measures one relaxing Solve of each view-structure
// document, built the way the workload builds it.
func BenchmarkSolveCorpus(b *testing.B) {
	for _, spec := range structureSpecs {
		d, _, err := corpus.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		g, err := Build(d, Options{DefaultLeafDuration: 500 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%d", spec.Shape, spec.Seed), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Solve(SolveOptions{Relax: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveArcDensity varies explicit-arc density at fixed size.
func BenchmarkSolveArcDensity(b *testing.B) {
	for _, every := range []int{0, 10, 2} {
		d := benchDoc(b, 1000, every)
		g, err := Build(d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		name := "none"
		if every > 0 {
			name = fmt.Sprintf("every-%d", every)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.Solve(SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify measures constraint auditing of a finished schedule.
func BenchmarkVerify(b *testing.B) {
	d := benchDoc(b, 1000, 10)
	g, err := Build(d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := g.Solve(SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := g.Verify(s.Times(), nil, nil); len(v) != 0 {
			b.Fatal("schedule does not verify")
		}
	}
}

// BenchmarkConflictDetection measures the negative-cycle path: an
// infeasible document that must be diagnosed.
func BenchmarkConflictDetection(b *testing.B) {
	d := benchDoc(b, 1000, 0)
	// Contradiction: l1 of s0 both 200ms after and exactly at l0's begin.
	l1, err := d.Root.Resolve("s0/l1")
	if err != nil {
		b.Fatal(err)
	}
	l1.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../l0", SrcEnd: core.Begin, Offset: units.MS(200), Dest: "",
		MaxDelay: units.MS(0)})
	l1.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../l0", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	g, err := Build(d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Solve(SolveOptions{}); err == nil {
			b.Fatal("conflict not detected")
		}
	}
}

// BenchmarkReschedule measures a one-leaf duration edit absorbed by
// Solver.Reschedule: on NewsWeb 6/3 (the author-live workload's document),
// NewsWeb 8/4 (the document the view workloads' live tail follows),
// Archive-201 (a view-structure document), DeepNest 2/6 (a plan with
// dropped May arcs) and a par-of-seq with 64 arms of 16 leaves, where the
// edit touches one arm of many. On NewsWeb 6/3 it also measures
// author-live's structural op kinds, each as a pair of edits that undo
// each other with a Reschedule after each: a May arc added and removed
// (arc-pair), and a leaf inserted and deleted (insert-pair).
func BenchmarkReschedule(b *testing.B) {
	newsweb := func() *core.Document {
		return corpusDoc(b, corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 6, Languages: 3})
	}
	duration := func(d *core.Document) []func(int) error {
		leaf := d.Root.Leaves()[0].PathString()
		return []func(int) error{func(i int) error {
			return edit.SetAttr(d, leaf, "duration", attr.Quantity(units.MS(int64(700+i%2))))
		}}
	}
	arcPair := func(d *core.Document) []func(int) error { p := livePairs(b, d); return p.arc[:] }
	insertPair := func(d *core.Document) []func(int) error { p := livePairs(b, d); return p.insert[:] }
	docs := []struct {
		name  string
		d     *core.Document
		edits func(*core.Document) []func(int) error
	}{
		{"newsweb-6x3", newsweb(), duration},
		{"newsweb-8x4", corpusDoc(b, corpus.Spec{Shape: corpus.NewsWeb, Seed: 101, Size: 8, Languages: 4}), duration},
		{"archive-201", corpusDoc(b, corpus.Spec{Shape: corpus.Archive, Seed: 201, Size: 20}), duration},
		{"deepnest-206", corpusDoc(b, corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6}), duration},
		{"parofseq-64x16", parOfSeq(b, 64, 16), duration},
		{"newsweb-6x3-arc-pair", newsweb(), arcPair},
		{"newsweb-6x3-insert-pair", newsweb(), insertPair},
	}
	for _, c := range docs {
		s, err := NewSolver(c.d, Options{DefaultLeafDuration: 500 * time.Millisecond}, SolveOptions{Relax: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Schedule(); err != nil {
			b.Fatal(err)
		}
		edits := c.edits(c.d)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range edits {
					if err := e(i); err != nil {
						b.Fatal(err)
					}
					if _, err := s.Reschedule(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// editPairs are author-live's structural op kinds on one leaf, each as
// two edits that undo each other.
type editPairs struct{ arc, insert [2]func(int) error }

// livePairs finds an arc-free immediate leaf of d with a named previous
// sibling. Its arc pair adds a May arc from the leaf to that sibling's end
// and removes it again; its insert pair inserts a copy of the leaf before
// its siblings and deletes the copy. The insert pair applies change
// records, as a follower does.
func livePairs(tb testing.TB, d *core.Document) editPairs {
	var leaf *core.Node
	d.Root.Walk(func(n *core.Node) bool {
		if prev := n.PrevSibling(); leaf == nil && n.Type == core.Imm && n.Attrs.Has("duration") &&
			prev != nil && prev.Name() != "" && !n.Attrs.Has("syncarcs") {
			leaf = n
		}
		return leaf == nil
	})
	if leaf == nil {
		tb.Fatal("document has no arc-free immediate leaf with a named previous sibling")
	}
	path, parent := leaf.PathString(), leaf.Parent().PathString()
	insert, err := edit.RecordInsert(parent, -1, leaf.Clone().SetName("copy"))
	if err != nil {
		tb.Fatal(err)
	}
	remove := edit.RecordDelete(strings.TrimSuffix(parent, "/") + "/copy")
	return editPairs{
		arc: [2]func(int) error{
			func(int) error {
				return edit.AddArc(d, path, core.SyncArc{
					DestEnd: core.Begin, Strict: core.May, Source: "../" + leaf.PrevSibling().Name(), SrcEnd: core.End,
					MaxDelay: units.MS(300),
				})
			},
			func(int) error { return edit.RemoveArc(d, path, 0) },
		},
		insert: [2]func(int) error{
			func(int) error { return edit.Apply(d, []core.ChangeRecord{insert}) },
			func(int) error { return edit.Apply(d, []core.ChangeRecord{remove}) },
		},
	}
}
