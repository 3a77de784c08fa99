// Benchmarks regenerating the performance dimension of every experiment
// cmifbench prints (internal/experiments: T1, F1–F10, A1, A2): one benchmark
// (or family) per table/figure/ablation.
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/ddbms"
	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/newsdoc"
	"repro/internal/pipeline"
	"repro/internal/player"
	"repro/internal/present"
	"repro/internal/render"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/units"
)

// corpus caches the standard news corpus across benchmarks.
var corpusCache = map[int]struct {
	doc   *core.Document
	store *media.Store
}{}

func corpus(b *testing.B, stories int) (*core.Document, *media.Store) {
	b.Helper()
	if c, ok := corpusCache[stories]; ok {
		return c.doc, c.store
	}
	doc, store, err := newsdoc.Build(newsdoc.Config{Stories: stories, Seed: 1991})
	if err != nil {
		b.Fatal(err)
	}
	corpusCache[stories] = struct {
		doc   *core.Document
		store *media.Store
	}{doc, store}
	return doc, store
}

// BenchmarkT1BuildingBlocks constructs the full corpus: every building
// block of the section 3.1 table.
func BenchmarkT1BuildingBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := newsdoc.Build(newsdoc.Config{Stories: 1, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1PipelineEndToEnd drives the Figure-1 pipeline.
func BenchmarkF1PipelineEndToEnd(b *testing.B) {
	doc, store := corpus(b, 2)
	cfg := pipeline.Config{
		Profile:  filter.Workstation1991,
		Screen:   present.Screen{W: 1152, H: 900},
		Speakers: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), doc, store, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2DDBMSQuery measures indexed descriptor queries (Figure 2's
// shaded DDBMS) against the linear baseline (ablation 4).
func BenchmarkF2DDBMSQuery(b *testing.B) {
	db := ddbms.New()
	for i := 0; i < 2000; i++ {
		desc := attr.MustList(
			attr.P("medium", attr.ID([]string{"video", "audio", "image", "text"}[i%4])),
			attr.P("width", attr.Number(int64(i%16)*40)),
			attr.P("duration", attr.Quantity(units.MS(int64(i)))),
		)
		db.Upsert(fmt.Sprintf("d%05d", i), desc)
	}
	preds := []ddbms.Pred{
		ddbms.Eq("medium", attr.ID("video")),
		ddbms.Range("duration", 100, 400, units.Millis),
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.Select(preds...)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.SelectLinear(preds...)
		}
	})
}

// BenchmarkF3TimelineRender renders the Figure 3/4b/10 channel view.
func BenchmarkF3TimelineRender(b *testing.B) {
	doc, _ := corpus(b, 3)
	g, err := sched.Build(doc, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Timeline(s, render.TimelineOptions{Resolution: time.Second})
	}
}

// BenchmarkF4NewsSchedule solves the evening-news constraint system at
// several sizes: the cost of deriving the Figure 4 template timing.
func BenchmarkF4NewsSchedule(b *testing.B) {
	for _, stories := range []int{1, 4, 16} {
		doc, _, err := newsdoc.Build(newsdoc.Config{Stories: stories, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("stories-%d", stories), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := sched.Build(doc, sched.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.Solve(sched.SolveOptions{Relax: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF5Serialize compares the Figure-5 text forms and the binary
// codec (ablation 3).
func BenchmarkF5Serialize(b *testing.B) {
	doc, _ := corpus(b, 3)
	b.Run("conventional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.Encode(doc, codec.WriteOptions{Form: codec.Conventional}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("embedded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.Encode(doc, codec.WriteOptions{Form: codec.Embedded}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncodeBinary(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkF6ParseRoundTrip parses the corpus text: the Figure-6 node
// formats at scale.
func BenchmarkF6ParseRoundTrip(b *testing.B) {
	doc, _ := corpus(b, 3)
	text, err := codec.Encode(doc, codec.WriteOptions{Form: codec.Conventional})
	if err != nil {
		b.Fatal(err)
	}
	bin, err := codec.EncodeBinary(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("text", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			if _, err := codec.Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		for i := 0; i < b.N; i++ {
			if _, err := codec.DecodeBinary(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkF7StyleResolve computes effective attributes (style expansion +
// inheritance) for every leaf: the Figure-7 machinery.
func BenchmarkF7StyleResolve(b *testing.B) {
	doc, _ := corpus(b, 3)
	leaves := doc.Root.Leaves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, leaf := range leaves {
			if _, err := doc.EffectiveAttrs(leaf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkF8SolveWindow plays a delay-window document under jitter: the
// Figure-8 semantics, hard versus relaxed.
func BenchmarkF8SolveWindow(b *testing.B) {
	build := func(windowMS int64) *sched.Graph {
		root := core.NewPar().SetName("r")
		a := core.NewExt().SetName("a").
			SetAttr("channel", attr.ID("video")).
			SetAttr("file", attr.String("a.vid")).
			SetAttr("duration", attr.Quantity(units.MS(400)))
		bb := core.NewExt().SetName("b").
			SetAttr("channel", attr.ID("audio")).
			SetAttr("file", attr.String("b.aud")).
			SetAttr("duration", attr.Quantity(units.MS(400)))
		bb.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
			Source: "../a", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(windowMS)})
		root.Add(a, bb)
		d, err := core.NewDocument(root)
		if err != nil {
			b.Fatal(err)
		}
		d.SetChannels(newsdoc.Channels())
		g, err := sched.Build(d, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	for _, windowMS := range []int64{0, 100} {
		g := build(windowMS)
		b.Run(fmt.Sprintf("window-%dms", windowMS), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := player.Play(g, player.Options{
					Jitter: player.ChannelJitter("audio", 50*time.Millisecond),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF9ArcResolve encodes, decodes and resolves explicit arcs: the
// Figure-9 tabular form machinery.
func BenchmarkF9ArcResolve(b *testing.B) {
	doc, _ := corpus(b, 3)
	type carrier struct {
		node *core.Node
		arcs []core.SyncArc
	}
	var carriers []carrier
	doc.Root.Walk(func(n *core.Node) bool {
		if arcs, err := n.Arcs(); err == nil && len(arcs) > 0 {
			carriers = append(carriers, carrier{n, arcs})
		}
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range carriers {
			for _, a := range c.arcs {
				if _, _, err := c.node.ResolveArc(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkF10FragmentPlay plays the Figure-10 fragment with its
// freeze-frame gate.
func BenchmarkF10FragmentPlay(b *testing.B) {
	doc, _ := corpus(b, 1)
	g, err := sched.Build(doc, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := player.Play(g, player.Options{Relax: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1Edit compares a local insert in CMIF against the flat-timeline
// baseline at growing document sizes.
func BenchmarkA1Edit(b *testing.B) {
	for _, stories := range []int{1, 4, 16} {
		doc, _, err := newsdoc.Build(newsdoc.Config{Stories: stories, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		g, err := sched.Build(doc, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		s, err := g.Solve(sched.SolveOptions{Relax: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cmif-%d", stories), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d2 := doc.Clone()
				leaf := core.NewImm([]byte("breaking")).SetName("breaking").
					SetAttr("style", attr.ID("caption-style")).
					SetAttr("duration", attr.Quantity(units.MS(2000)))
				if _, err := baseline.InsertLeafCMIF(d2, "caption", leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("flat-%d", stories), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd := baseline.Flatten(s)
				fd.InsertAt(baseline.FlatEvent{Channel: "captions",
					Name: "breaking", Start: time.Second, Dur: 2 * time.Second})
			}
		})
	}
}

// BenchmarkA2Transport fetches the news structure-only versus inlined over
// a real TCP loopback connection.
func BenchmarkA2Transport(b *testing.B) {
	doc, store := corpus(b, 2)
	reg := transport.NewRegistry(store)
	reg.PutDoc("news", doc)
	srv := transport.NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	run := func(b *testing.B, opts transport.GetDocOptions) {
		c, err := transport.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.GetDoc(context.Background(), "news", opts); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(c.BytesReceived() / int64(b.N))
	}
	b.Run("structure-text", func(b *testing.B) {
		run(b, transport.GetDocOptions{Encoding: transport.EncodingText})
	})
	b.Run("structure-binary", func(b *testing.B) {
		run(b, transport.GetDocOptions{Encoding: transport.EncodingBinary})
	})
	b.Run("inline-binary", func(b *testing.B) {
		run(b, transport.GetDocOptions{Encoding: transport.EncodingBinary, Inline: true})
	})
}

// BenchmarkValidate measures the consistency checker on the corpus.
func BenchmarkValidate(b *testing.B) {
	doc, _ := corpus(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.Validate()
	}
}

// BenchmarkFilterEvaluate measures descriptor-only constraint filtering.
func BenchmarkFilterEvaluate(b *testing.B) {
	doc, store := corpus(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Evaluate(doc, store, filter.Laptop1991); err != nil {
			b.Fatal(err)
		}
	}
}
