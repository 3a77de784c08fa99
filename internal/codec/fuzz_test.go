package codec_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/player"
	"repro/internal/render"
	"repro/internal/sched"
)

// seedDocs returns a small document of every corpus shape and one
// shaped like transport's fixture: external leaves and an immediate one
// carrying data.
func seedDocs(tb testing.TB) []*core.Document {
	tb.Helper()
	var docs []*core.Document
	for _, shape := range corpus.Shapes() {
		d, _, err := corpus.Generate(corpus.Spec{Shape: shape, Seed: 1, Size: 2, Depth: 3})
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, d)
	}
	root := core.NewPar().SetName("news")
	root.Add(
		core.NewExt().SetName("intro").
			SetAttr("channel", attr.ID("video")).
			SetAttr("file", attr.String("anchor.vid")),
		core.NewImm([]byte("Story 3")).SetName("label").
			SetAttr("channel", attr.ID("labels")),
	)
	d, err := core.NewDocument(root)
	if err != nil {
		tb.Fatal(err)
	}
	return append(docs, d)
}

// FuzzDecodeBinary: the binary form is the one a server's registry, its
// journal, replication and subscribe snapshots share, the one views
// fetch, and the one replicas decode from peers. Arbitrary bytes must
// never panic the decoder, and whatever it accepts must re-encode to a
// fixed point after one round: encode(decode(x)) decodes and encodes
// back to itself. An accepted document must also have a text form — an
// earlier client fetches it as text — that parses back to the same
// binary.
func FuzzDecodeBinary(f *testing.F) {
	for _, d := range seedDocs(f) {
		f.Add(mustEncode(f, d))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := codec.DecodeBinary(data)
		if err != nil {
			return
		}
		once := mustEncode(t, d)
		again, err := codec.DecodeBinary(once)
		if err != nil {
			t.Fatalf("the re-encoding of an accepted document does not decode: %v", err)
		}
		if twice := mustEncode(t, again); !bytes.Equal(once, twice) {
			t.Fatal("encode(decode(x)) is not a fixed point")
		}
		text, err := codec.Encode(d, codec.WriteOptions{})
		if err != nil {
			t.Fatalf("an accepted document has no text form: %v", err)
		}
		back, err := codec.Parse(text)
		if err != nil {
			t.Fatalf("the text form of an accepted document does not parse: %v\n%s", err, text)
		}
		if !bytes.Equal(mustEncode(t, back), mustEncode(t, textCarried(d))) {
			t.Fatalf("the text form does not parse back to the same binary:\n%s", text)
		}
	})
}

// FuzzParse: the text form is what files, cmifc and earlier clients
// carry, and putdoc accepts it from the wire. Arbitrary text must never
// panic the parser, and every refusal is a *codec.SyntaxError. An
// accepted text must survive the trip through the binary form: text →
// doc → binary → doc → text equals text → doc → text. A document that
// validates must then get through every layer of a view without a panic.
func FuzzParse(f *testing.F) {
	for _, d := range seedDocs(f) {
		for _, form := range []codec.Form{codec.Conventional, codec.Embedded} {
			text, err := codec.Encode(d, codec.WriteOptions{Form: form})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(text)
		}
	}
	examples, err := filepath.Glob(filepath.Join("testdata", "examples", "*.cmif"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example documents under testdata/examples (%v)", err)
	}
	for _, path := range examples {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Add("")
	f.Add("(seq (x -5) (y -) (z [(a 1) b]))")

	f.Fuzz(func(t *testing.T, text string) {
		d, err := codec.Parse(text)
		if err != nil {
			var se *codec.SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse returned untyped error %T: %v", err, err)
			}
			return
		}
		direct, err := codec.Encode(d, codec.WriteOptions{})
		if err != nil {
			t.Fatalf("an accepted text has no text form: %v", err)
		}
		viaBinary, err := codec.DecodeBinary(mustEncode(t, d))
		if err != nil {
			t.Fatalf("the binary form of an accepted text does not decode: %v", err)
		}
		crossed, err := codec.Encode(viaBinary, codec.WriteOptions{})
		if err != nil {
			t.Fatalf("a document through the binary form has no text form: %v", err)
		}
		if crossed != direct {
			t.Fatalf("text → doc → binary → doc → text differs from text → doc → text:\n%s\n---\n%s", direct, crossed)
		}
		viewValid(d)
	})
}

// viewValid runs a document that validates through the view's layers
// after the codec — the scheduler, a relaxed solve, playback under jitter
// and the four renderings — as a reader would. Errors are answers; only a
// panic fails the fuzz target.
func viewValid(d *core.Document) {
	if len(core.Errors(d.Validate())) > 0 {
		return
	}
	render.Tree(d)
	render.ArcTable(d)
	g, err := sched.Build(d, sched.Options{DefaultLeafDuration: 500 * time.Millisecond})
	if err != nil {
		return
	}
	plan, err := g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		return
	}
	player.PlaySchedule(plan, player.Options{Jitter: player.UniformJitter(1, 30*time.Millisecond), Relax: true})
	render.Timeline(plan, render.TimelineOptions{})
	render.TOCText(plan)
}

// textCarried returns a copy of d as its text form carries it: an ID
// value the writer cannot render bare travels as a string.
func textCarried(d *core.Document) *core.Document {
	c := d.Clone()
	c.Root.Walk(func(n *core.Node) bool {
		for _, p := range n.Attrs.Pairs() {
			n.Attrs.Set(p.Name, quotedIDs(p.Value))
		}
		return true
	})
	return c
}

func quotedIDs(v attr.Value) attr.Value {
	if id, ok := v.AsID(); ok && id != "" && !codec.IdentOK(id) {
		return attr.String(id)
	}
	items, ok := v.AsList()
	if !ok {
		return v
	}
	out := make([]attr.Item, len(items))
	for i, it := range items {
		out[i] = attr.Item{Name: it.Name, Value: quotedIDs(it.Value)}
	}
	return attr.ListOf(out...)
}

func mustEncode(t testing.TB, d *core.Document) []byte {
	t.Helper()
	data, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}
