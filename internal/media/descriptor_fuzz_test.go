package media_test

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/media"
)

// FuzzParseDescriptor: arbitrary bytes never panic the descriptor parser,
// and any text it accepts encodes, and the encoding reaches a fixed point
// after one round — parse, encode, parse, encode gives the first encoding
// again. The seeds are the descriptors of every generated corpus shape.
func FuzzParseDescriptor(f *testing.F) {
	seen := map[string]bool{}
	for _, shape := range corpus.Shapes() {
		_, store, err := corpus.Generate(corpus.Spec{Shape: shape, Seed: 1, Size: 2})
		if err != nil {
			f.Fatal(err)
		}
		store.Each(func(b *media.Block) bool {
			text, err := b.DescriptorText()
			if err != nil {
				f.Fatalf("%s block %q: %v", shape, b.Name, err)
			}
			if !seen[string(text)] {
				seen[string(text)] = true
				f.Add(text)
			}
			return true
		})
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		desc, err := media.ParseDescriptor(text)
		if err != nil {
			return
		}
		once, err := media.EncodeDescriptor(desc)
		if err != nil {
			t.Fatalf("parsed %q, but its descriptor %v does not encode: %v", text, desc, err)
		}
		again, err := media.ParseDescriptor(once)
		if err != nil {
			t.Fatalf("the encoding %q of %q does not parse: %v", once, text, err)
		}
		twice, err := media.EncodeDescriptor(again)
		if err != nil {
			t.Fatalf("the re-parse of %q does not encode: %v", once, err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("no fixed point: %q encodes as %q, then as %q", text, once, twice)
		}
	})
}
