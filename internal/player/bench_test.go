package player

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/units"
)

// benchGraph builds a par of seqs with leaves leaves total.
func benchGraph(b *testing.B, leaves int) *sched.Graph {
	b.Helper()
	root := core.NewPar().SetName("root")
	const fan = 10
	for s := 0; s*fan < leaves; s++ {
		seq := core.NewSeq().SetName(fmt.Sprintf("s%d", s)).
			SetAttr("channel", attr.ID("video"))
		for l := 0; l < fan && s*fan+l < leaves; l++ {
			seq.AddChild(core.NewExt().SetName(fmt.Sprintf("l%d", l)).
				SetAttr("file", attr.String("x.dat")).
				SetAttr("duration", attr.Quantity(units.MS(100))))
		}
		root.AddChild(seq)
	}
	d, err := core.NewDocument(root)
	if err != nil {
		b.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo,
		Rates: units.Rates{FrameRate: 25}})
	d.SetChannels(cd)
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkPlayIdeal(b *testing.B) {
	for _, leaves := range []int{100, 1000} {
		g := benchGraph(b, leaves)
		b.Run(fmt.Sprintf("leaves-%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Play(g, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlayJittered(b *testing.B) {
	g := benchGraph(b, 1000)
	jitter := UniformJitter(5, 20*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Play(g, Options{Jitter: jitter, Relax: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeSeek(b *testing.B) {
	g := benchGraph(b, 1000)
	s, err := g.Solve(sched.SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mid := s.Makespan() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeSeek(s, mid)
	}
}

// BenchmarkPlayDeepNest plays the arc-dense corpus shape (DeepNest 2/6, 28
// May arcs dropped) under jitter: Play plans first, PlaySchedule is handed
// the plan, as pipeline.Run and cmif.Plan.Play are.
func BenchmarkPlayDeepNest(b *testing.B) {
	g := corpusGraph(b, corpus.Spec{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6})
	plan, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Jitter: UniformJitter(1, 30*time.Millisecond), Relax: true}
	b.Run("Play", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Play(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PlaySchedule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PlaySchedule(plan, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
