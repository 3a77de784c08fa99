// Package experiments regenerates every table and figure of the paper's
// presentation: T1, F1-F10 and the two ablations A1, A2. Each experiment
// returns a Table: measured rows, optional rendered artifact, and notes
// recording what shape the paper leads us to expect. cmd/cmifbench prints
// them. The package also holds the one load driver that is not a paper
// artifact: the S5 soak (soakbench.go, benchgate.go) that cmd/cmifsoak
// runs against live daemons in the CI smoke jobs and the nightly soak.
package experiments

import (
	"context"
	"fmt"
	"strings"
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

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Artifact is a rendered figure (timeline, tree, trace) when the
	// experiment reproduces a visual.
	Artifact string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	row := func(cells []string) {
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "| %-*s ", w, c)
		}
		b.WriteString("|\n")
	}
	if len(t.Header) > 0 {
		row(t.Header)
		total := 1
		for _, w := range widths {
			total += w + 3
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if t.Artifact != "" {
		b.WriteString("---- artifact ----\n")
		b.WriteString(t.Artifact)
		if !strings.HasSuffix(t.Artifact, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Experiment pairs an id with its generator.
type Experiment struct {
	ID  string
	Run func() (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"T1", BuildingBlocks},
		{"F1", Pipeline},
		{"F2", DescriptorSharing},
		{"F3", StructureView},
		{"F4", EveningNews},
		{"F5", TreeForms},
		{"F6", NodeFormats},
		{"F7", AttributeTable},
		{"F8", DelayWindows},
		{"F9", ArcTable},
		{"F10", NewsFragment},
		{"A1", BaselineComparison},
		{"A2", TransportCost},
	}
}

// news builds the standard corpus.
func news(stories int) (*core.Document, *media.Store, error) {
	return newsdoc.Build(newsdoc.Config{Stories: stories, Seed: 1991})
}

// BuildingBlocks reproduces the section 3.1 table: every building block is
// constructed and counted in the standard corpus.
func BuildingBlocks() (*Table, error) {
	d, store, err := news(3)
	if err != nil {
		return nil, err
	}
	stats := d.Stats()
	rows := [][]string{
		{"Data Blocks", "internal/media", fmt.Sprint(store.Len()),
			"atomic single-media payloads in the store"},
		{"Data Descriptors", "internal/media, internal/ddbms", fmt.Sprint(store.Len()),
			"attribute lists describing each block"},
		{"Event Descriptors", "internal/core", fmt.Sprint(stats.LeafCount),
			"ext/imm leaves: one use of a data block each"},
		{"Synchronization Channels", "internal/core", fmt.Sprint(stats.Channels),
			"video, audio, graphic, captions, labels"},
		{"Synchronization Arcs", "internal/core, internal/sched", fmt.Sprint(stats.Arcs),
			"explicit arcs; defaults derived structurally"},
	}
	return &Table{
		ID: "T1", Title: "CMIF building blocks (section 3.1 table)",
		Header: []string{"building block", "module", "count in corpus", "function"},
		Rows:   rows,
		Notes: []string{
			"every block of the paper's table is constructible and used by the corpus",
		},
	}, nil
}

// Pipeline reproduces Figure 1: the news document through all five stages
// on two environments.
func Pipeline() (*Table, error) {
	d, store, err := news(2)
	if err != nil {
		return nil, err
	}
	rows := [][]string{}
	var artifact strings.Builder
	for _, cfg := range []pipeline.Config{
		{Profile: filter.Workstation1991, Screen: present.Screen{W: 1152, H: 900}, Speakers: 2},
		{Profile: filter.Laptop1991, Screen: present.Screen{W: 640, H: 480}, Speakers: 1,
			Jitter: player.UniformJitter(7, 40*time.Millisecond)},
	} {
		out, err := pipeline.Run(context.Background(), d, store, cfg)
		if err != nil {
			return nil, err
		}
		pass, tr, drop := out.FilterMap.Counts()
		rows = append(rows, []string{
			cfg.Profile.Name,
			fmt.Sprint(out.Schedule.Makespan()),
			fmt.Sprintf("%d/%d/%d", pass, tr, drop),
			fmt.Sprint(out.FilterMap.Supportable()),
			fmt.Sprint(out.Playback.Success()),
			fmt.Sprint(out.Playback.TotalStretch),
		})
		fmt.Fprintf(&artifact, "--- %s ---\n%s", cfg.Profile.Name, out.Summary())
	}
	return &Table{
		ID: "F1", Title: "CWI/Multimedia Pipeline end to end (Figure 1)",
		Header: []string{"environment", "makespan", "pass/transform/drop",
			"supportable", "playback ok", "stretch"},
		Rows:     rows,
		Artifact: artifact.String(),
		Notes: []string{
			"same CMIF document, two environments: the laptop transforms media and still plays",
		},
	}, nil
}

// DescriptorSharing reproduces Figure 2: blocks, descriptors, multiple
// event descriptors per block, and DDBMS lookup against linear scan.
func DescriptorSharing() (*Table, error) {
	store := media.NewStore()
	db := ddbms.New()
	const blocks = 500
	for i := 0; i < blocks; i++ {
		b := media.CaptureImage(fmt.Sprintf("img-%04d", i), 32, 32, uint64(i))
		b.Descriptor.Set("subject", attr.ID([]string{"painting", "map", "chart"}[i%3]))
		store.Put(b)
		db.Upsert(b.Name, b.Descriptor)
	}
	// Many event descriptors can share one data descriptor.
	root := core.NewSeq().SetName("uses")
	for i := 0; i < 4; i++ {
		root.AddChild(core.NewExt().SetName(fmt.Sprintf("use-%d", i)).
			SetAttr("file", attr.String("img-0000")).
			SetAttr("channel", attr.ID("graphic")))
	}

	pred := []ddbms.Pred{
		ddbms.Eq("subject", attr.ID("painting")),
		ddbms.Range(media.DescWidth, 32, 32, units.None),
	}
	t0 := time.Now()
	idx := db.Select(pred...)
	indexed := time.Since(t0)
	t0 = time.Now()
	lin := db.SelectLinear(pred...)
	linear := time.Since(t0)
	if len(idx) != len(lin) {
		return nil, fmt.Errorf("experiments: index/linear disagree: %d vs %d", len(idx), len(lin))
	}
	return &Table{
		ID: "F2", Title: "Blocks, descriptors, event descriptors, DDBMS (Figure 2)",
		Header: []string{"measure", "value"},
		Rows: [][]string{
			{"data blocks", fmt.Sprint(store.Len())},
			{"descriptors in DDBMS", fmt.Sprint(db.Len())},
			{"event descriptors sharing img-0000", fmt.Sprint(root.NumChildren())},
			{"query matches", fmt.Sprint(len(idx))},
			{"indexed query", fmt.Sprint(indexed)},
			{"linear scan", fmt.Sprint(linear)},
			{"payload bytes untouched by query", fmt.Sprint(store.TotalBytes())},
		},
		Notes: []string{
			"descriptor operations never read payloads (paper section 6: attributes, not media data)",
		},
	}, nil
}

// StructureView reproduces Figure 3: channels, event descriptors and a
// synchronization arc rendered as a timeline.
func StructureView() (*Table, error) {
	d, _, err := news(1)
	if err != nil {
		return nil, err
	}
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		return nil, err
	}
	s, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		return nil, err
	}
	artifact := render.Timeline(s, render.TimelineOptions{Resolution: time.Second})
	return &Table{
		ID: "F3", Title: "Document structure components (Figure 3)",
		Header: []string{"component", "count"},
		Rows: [][]string{
			{"channels", fmt.Sprint(d.Channels().Len())},
			{"event descriptors", fmt.Sprint(d.Stats().LeafCount)},
			{"synchronization arcs", fmt.Sprint(d.Stats().Arcs)},
		},
		Artifact: artifact,
	}, nil
}

// EveningNews reproduces Figure 4: the full news document and its template
// view.
func EveningNews() (*Table, error) {
	d, store, err := news(3)
	if err != nil {
		return nil, err
	}
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		return nil, err
	}
	s, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		return nil, err
	}
	stats := d.Stats()
	text, err := codec.Encode(d, codec.WriteOptions{Form: codec.Conventional})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID: "F4", Title: "The Evening News as document and template (Figure 4)",
		Header: []string{"measure", "value"},
		Rows: [][]string{
			{"stories", "3"},
			{"channels", fmt.Sprint(stats.Channels)},
			{"nodes", fmt.Sprint(stats.Nodes)},
			{"event descriptors", fmt.Sprint(stats.LeafCount)},
			{"explicit arcs", fmt.Sprint(stats.Arcs)},
			{"media payload bytes", fmt.Sprint(store.TotalBytes())},
			{"document text bytes", fmt.Sprint(len(text))},
			{"structure/data ratio", fmt.Sprintf("1:%d", store.TotalBytes()/int64(len(text)))},
			{"broadcast length", fmt.Sprint(s.Makespan())},
		},
		Artifact: render.Timeline(s, render.TimelineOptions{Resolution: 2 * time.Second}),
		Notes: []string{
			"the structure is orders of magnitude smaller than the data it coordinates",
		},
	}, nil
}

// TreeForms reproduces Figure 5: the same tree in conventional and embedded
// forms, plus the binary codec for scale.
func TreeForms() (*Table, error) {
	d, _, err := news(1)
	if err != nil {
		return nil, err
	}
	conv, err := codec.Encode(d, codec.WriteOptions{Form: codec.Conventional})
	if err != nil {
		return nil, err
	}
	emb, err := codec.Encode(d, codec.WriteOptions{Form: codec.Embedded})
	if err != nil {
		return nil, err
	}
	bin, err := codec.EncodeBinary(d)
	if err != nil {
		return nil, err
	}
	for _, text := range []string{conv, emb} {
		if _, err := codec.Parse(text); err != nil {
			return nil, fmt.Errorf("experiments: round trip failed: %w", err)
		}
	}
	if _, err := codec.DecodeBinary(bin); err != nil {
		return nil, err
	}
	// Artifact: a small subtree in both text forms.
	sub := d.Root.FindByName("graphic")
	subConv, _ := codec.EncodeNode(sub.Clone(), codec.WriteOptions{Form: codec.Conventional})
	subEmb, _ := codec.EncodeNode(sub.Clone(), codec.WriteOptions{Form: codec.Embedded})
	return &Table{
		ID: "F5", Title: "Conventional and embedded tree forms (Figure 5)",
		Header: []string{"form", "bytes", "round-trips"},
		Rows: [][]string{
			{"conventional (5a)", fmt.Sprint(len(conv)), "yes"},
			{"embedded (5b)", fmt.Sprint(len(emb)), "yes"},
			{"binary (ablation 3)", fmt.Sprint(len(bin)), "yes"},
		},
		Artifact: "conventional:\n" + subConv + "\nembedded:\n" + subEmb + "\n",
	}, nil
}

// NodeFormats reproduces Figure 6: the general format of the four node
// types, each parsed and reprinted.
func NodeFormats() (*Table, error) {
	examples := map[string]string{
		"seq": `(seq (name intro) (channel video) (ext (name a) (file "x.vid")))`,
		"par": `(par (name story) (seq (name v)) (seq (name a)))`,
		"ext": `(ext (name clip) (file "scene.vid") (slice [(from 0) (to 1024)]))`,
		"imm": `(imm (name label) (channel labels) (data "Story 3. Paintings"))`,
	}
	var rows [][]string
	var artifact strings.Builder
	for _, nt := range []string{"seq", "par", "ext", "imm"} {
		src := examples[nt]
		n, err := codec.ParseNode(src)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s example: %w", nt, err)
		}
		out, err := codec.EncodeNode(n, codec.WriteOptions{Form: codec.Embedded})
		if err != nil {
			return nil, err
		}
		back, err := codec.ParseNode(out)
		if err != nil {
			return nil, err
		}
		ok := back.Type.String() == nt
		rows = append(rows, []string{nt, fmt.Sprint(n.Attrs.Len()), fmt.Sprint(ok)})
		fmt.Fprintf(&artifact, "%-4s %s\n", nt, strings.TrimSpace(out))
	}
	return &Table{
		ID: "F6", Title: "Node general formats (Figure 6)",
		Header:   []string{"node type", "attributes", "round-trips"},
		Rows:     rows,
		Artifact: artifact.String(),
	}, nil
}

// AttributeTable reproduces Figure 7: every standard attribute with its
// properties, and whether the corpus exercises it.
func AttributeTable() (*Table, error) {
	d, _, err := news(1)
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	d.Root.Walk(func(n *core.Node) bool {
		for _, p := range n.Attrs.Pairs() {
			used[p.Name] = true
		}
		return true
	})
	// Style bodies count too: tformatting lives inside the style dict.
	for _, name := range d.Styles().Names() {
		def, _ := d.Styles().Lookup(name)
		for _, p := range def.Pairs() {
			used[p.Name] = true
		}
	}
	var rows [][]string
	for _, name := range core.StandardAttrs.Names() {
		spec, _ := core.StandardAttrs.Lookup(name)
		rows = append(rows, []string{
			name,
			fmt.Sprint(spec.Inherited),
			fmt.Sprint(spec.RootOnly),
			fmt.Sprint(used[name]),
			spec.Doc,
		})
	}
	return &Table{
		ID: "F7", Title: "Standard attributes (Figure 7)",
		Header: []string{"attribute", "inherited", "root-only", "used in corpus", "description"},
		Rows:   rows,
	}, nil
}

// DelayWindows reproduces Figure 8: the δ/ε delay window semantics, swept
// against device jitter. Hard windows reject jitter; windows at least as
// wide as the jitter bound absorb it.
func DelayWindows() (*Table, error) {
	var rows [][]string
	for _, jitterMS := range []int64{0, 20, 40, 80} {
		for _, windowMS := range []int64{0, 25, 50, 100} {
			ok, drift, err := delayTrial(jitterMS, windowMS)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				fmt.Sprintf("%dms", jitterMS),
				fmt.Sprintf("[0, %dms]", windowMS),
				fmt.Sprint(ok),
				fmt.Sprint(drift),
			})
		}
	}
	return &Table{
		ID: "F8", Title: "Synchronization delay parameters (Figure 8)",
		Header: []string{"device jitter", "delay window [δ, ε]", "must honoured", "drift"},
		Rows:   rows,
		Notes: []string{
			"hard sync (ε = 0) fails under any jitter; ε ≥ jitter absorbs it — the",
			"paper's motivation for delay tolerances in transportable documents",
		},
	}, nil
}

// delayTrial runs one cell of the F8 sweep: two parallel leaves, the second
// pinned to the first within [0, window], with fixed jitter on its channel.
func delayTrial(jitterMS, windowMS int64) (ok bool, drift time.Duration, err error) {
	root := core.NewPar().SetName("r")
	a := core.NewExt().SetName("a").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("a.vid")).
		SetAttr("duration", attr.Quantity(units.MS(400)))
	b := core.NewExt().SetName("b").
		SetAttr("channel", attr.ID("audio")).
		SetAttr("file", attr.String("b.aud")).
		SetAttr("duration", attr.Quantity(units.MS(400)))
	a.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "/", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	b.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.Must,
		Source: "../a", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(windowMS)})
	root.Add(a, b)
	d, err := core.NewDocument(root)
	if err != nil {
		return false, 0, err
	}
	d.SetChannels(newsdoc.Channels())
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		return false, 0, err
	}
	res, err := player.Play(g, player.Options{
		Jitter: player.ChannelJitter("audio", time.Duration(jitterMS)*time.Millisecond),
	})
	if err != nil {
		return false, 0, err
	}
	return res.Success(), res.MaxDrift, nil
}

// ArcTable reproduces Figure 9: the tabular synchronization arc form over
// the corpus.
func ArcTable() (*Table, error) {
	d, _, err := news(1)
	if err != nil {
		return nil, err
	}
	var must, may, beginArcs, endArcs int
	d.Root.Walk(func(n *core.Node) bool {
		arcs, _ := n.Arcs()
		for _, a := range arcs {
			if a.Strict == core.Must {
				must++
			} else {
				may++
			}
			if a.DestEnd == core.Begin {
				beginArcs++
			} else {
				endArcs++
			}
		}
		return true
	})
	return &Table{
		ID: "F9", Title: "Synchronization arcs in tabular form (Figure 9)",
		Header: []string{"measure", "count"},
		Rows: [][]string{
			{"must arcs", fmt.Sprint(must)},
			{"may arcs", fmt.Sprint(may)},
			{"begin-targeted", fmt.Sprint(beginArcs)},
			{"end-targeted", fmt.Sprint(endArcs)},
		},
		Artifact: render.ArcTable(d),
	}, nil
}

// NewsFragment reproduces Figure 10: the stolen-paintings fragment with its
// explicit arcs, checked against the paper's described behaviour.
func NewsFragment() (*Table, error) {
	d, _, err := news(1)
	if err != nil {
		return nil, err
	}
	g, err := sched.Build(d, sched.Options{})
	if err != nil {
		return nil, err
	}
	s, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		return nil, err
	}
	story := d.Root.FindByName("story-0")
	crime := story.FindByName("crime-scene")
	cap4 := story.FindByName("cap-4")
	th1 := story.FindByName("talking-head-1")
	g2 := story.FindByName("painting-two")
	cap2 := story.FindByName("cap-2")

	check := func(name string, got, want time.Duration) []string {
		verdict := "ok"
		if got != want {
			verdict = "MISMATCH"
		}
		return []string{name, fmt.Sprint(got), fmt.Sprint(want), verdict}
	}
	rows := [][]string{
		check("crime scene gated by caption 4 end", s.StartOf(crime), s.EndOf(cap4)),
		check("talking head freeze-frame stretch", s.StretchOf(th1, nil), 4*time.Second),
		check("painting two at cap-2 end + 250ms offset", s.StartOf(g2), s.EndOf(cap2)+250*time.Millisecond),
	}
	res, err := player.PlaySchedule(s, player.Options{Relax: true})
	if err != nil {
		return nil, err
	}
	var freezeLines []string
	for _, e := range res.Trace {
		if e.Action == player.ActionFreeze {
			freezeLines = append(freezeLines, e.String())
		}
	}
	return &Table{
		ID: "F10", Title: "News report fragment structure (Figure 10)",
		Header: []string{"behaviour", "measured", "expected", "verdict"},
		Rows:   rows,
		Artifact: render.Timeline(s, render.TimelineOptions{Resolution: time.Second}) +
			"\nfreeze-frame events:\n" + strings.Join(freezeLines, "\n") + "\n",
		Notes: []string{
			"\"this may require a freeze-frame video operation to support the synchronization\"",
		},
	}, nil
}

// BaselineComparison is ablation A1: CMIF structural edits versus the
// Muse-style flat timeline.
func BaselineComparison() (*Table, error) {
	var rows [][]string
	for _, stories := range []int{1, 3, 6} {
		d, _, err := news(stories)
		if err != nil {
			return nil, err
		}
		g, err := sched.Build(d, sched.Options{})
		if err != nil {
			return nil, err
		}
		s, err := g.Solve(sched.SolveOptions{Relax: true})
		if err != nil {
			return nil, err
		}
		fd := baseline.Flatten(s)
		events := fd.Len()
		fd.TouchedEvents = 0
		fd.InsertAt(baseline.FlatEvent{Channel: "captions", Name: "breaking",
			Start: time.Second, Dur: 2 * time.Second})
		flatTouched := fd.TouchedEvents

		leaf := core.NewImm([]byte("breaking")).SetName("breaking").
			SetAttr("style", attr.ID("caption-style")).
			SetAttr("duration", attr.Quantity(units.MS(2000)))
		cost, err := baseline.InsertLeafCMIF(d, "caption", leaf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprint(stories),
			fmt.Sprint(events),
			fmt.Sprint(cost.NodesTouched),
			fmt.Sprint(flatTouched),
			fmt.Sprintf("%.0fx", float64(flatTouched)/float64(cost.NodesTouched)),
		})
	}
	return &Table{
		ID: "A1", Title: "Edit cost: CMIF structure vs flat timeline (ablation)",
		Header: []string{"stories", "events", "CMIF nodes touched", "flat events touched", "ratio"},
		Rows:   rows,
		Notes: []string{
			"CMIF edits are O(1) structural; flat-timeline edits rewrite every later event",
		},
	}, nil
}

// TransportCost is ablation A2: structure-only vs inlined transport over
// the wire, in text and binary encodings.
func TransportCost() (*Table, error) {
	d, store, err := news(2)
	if err != nil {
		return nil, err
	}
	reg := transport.NewRegistry(store)
	reg.PutDoc("news", d)
	srv := transport.NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	fetch := func(opts transport.GetDocOptions) (int64, error) {
		c, err := transport.Dial(addr)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if _, err := c.GetDoc(context.Background(), "news", opts); err != nil {
			return 0, err
		}
		return c.BytesReceived(), nil
	}
	var rows [][]string
	var structureBytes int64
	for _, mode := range []struct {
		name string
		opts transport.GetDocOptions
	}{
		{"structure-only, text", transport.GetDocOptions{Encoding: transport.EncodingText}},
		{"structure-only, binary", transport.GetDocOptions{Encoding: transport.EncodingBinary}},
		{"inlined, text", transport.GetDocOptions{Encoding: transport.EncodingText, Inline: true}},
		{"inlined, binary", transport.GetDocOptions{Encoding: transport.EncodingBinary, Inline: true}},
	} {
		n, err := fetch(mode.opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", mode.name, err)
		}
		if structureBytes == 0 {
			structureBytes = n
		}
		rows = append(rows, []string{
			mode.name, fmt.Sprint(n), fmt.Sprintf("%.1fx", float64(n)/float64(structureBytes)),
		})
	}
	rows = append(rows, []string{"payload bytes in store", fmt.Sprint(store.TotalBytes()), ""})
	return &Table{
		ID: "A2", Title: "Transport cost: structure vs inlined data (ablation)",
		Header: []string{"mode", "wire bytes", "vs structure/text"},
		Rows:   rows,
		Notes: []string{
			"\"the tree ... can be passed from one location to another with or without the underlying data\"",
		},
	}, nil
}
