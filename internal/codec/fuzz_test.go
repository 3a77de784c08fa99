package codec_test

import (
	"bytes"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
)

// FuzzDecodeBinary: the binary form is the one a server's registry, its
// journal, replication and subscribe snapshots share, and replicas
// decode it from peers. Arbitrary bytes must never panic the decoder,
// and whatever it accepts must re-encode to a fixed point after one
// round: encode(decode(x)) decodes and encodes back to itself.
func FuzzDecodeBinary(f *testing.F) {
	for _, shape := range corpus.Shapes() {
		d, _, err := corpus.Generate(corpus.Spec{Shape: shape, Seed: 1, Size: 2, Depth: 3})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mustEncode(f, d))
	}
	// The shape of transport's fixture: external leaves and an
	// immediate one carrying data.
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
		f.Fatal(err)
	}
	f.Add(mustEncode(f, d))
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
	})
}

func mustEncode(t testing.TB, d *core.Document) []byte {
	t.Helper()
	data, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}
