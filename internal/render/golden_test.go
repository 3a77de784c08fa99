package render_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/newsdoc"
	"repro/internal/pipeline"
	"repro/internal/present"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenSpecs are the documents of views.golden: cmifmark's view-structure
// corpus (three Archive runs and five DeepNest trees) and one NewsWeb
// document of its media corpus.
var goldenSpecs = []corpus.Spec{
	{Shape: corpus.Archive, Seed: 201, Size: 20},
	{Shape: corpus.Archive, Seed: 202, Size: 20},
	{Shape: corpus.Archive, Seed: 203, Size: 20},
	{Shape: corpus.DeepNest, Seed: 204, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 205, Size: 3, Depth: 3},
	{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 207, Size: 2, Depth: 6},
	{Shape: corpus.DeepNest, Seed: 208, Size: 2, Depth: 6},
	{Shape: corpus.NewsWeb, Seed: 101, Size: 8, Languages: 4},
}

// TestViewsGolden pins the four reading-tool views byte for byte — the
// tree, the channel/time view at pipeline.Run's resolution, the table of
// contents and the arc table — as pipeline.Run produces them for the
// golden corpus and the evening news. -update rewrites the file.
func TestViewsGolden(t *testing.T) {
	type doc struct {
		label string
		d     *core.Document
		store *media.Store
	}
	var docs []doc
	for _, spec := range goldenSpecs {
		d, store, err := corpus.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc{fmt.Sprintf("%+v", spec), d, store})
	}
	d, store, err := newsdoc.Build(newsdoc.Config{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, doc{"eveningnews", d, store})

	var b strings.Builder
	for _, e := range docs {
		out, err := pipeline.Run(context.Background(), e.d, e.store, pipeline.Config{
			Profile: filter.Workstation1991,
			Screen:  present.Screen{W: 1152, H: 900}, Speakers: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", e.label, err)
		}
		for _, v := range []struct{ name, text string }{
			{"tree", out.TreeView}, {"timeline", out.TimelineView},
			{"toc", out.TOCView}, {"arcs", out.ArcView},
		} {
			fmt.Fprintf(&b, "== %s %s\n%s", e.label, v.name, v.text)
		}
	}
	checkGolden(t, "views.golden", b.String())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d is\n%s\nwant\n%s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
