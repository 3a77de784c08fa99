package codec_test

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
)

// corpusDocs generates one document per corpus shape, at the sizes the
// view benchmarks serve: a media-corpus NewsWeb and a structure-corpus
// Archive and DeepNest.
func corpusDocs(tb testing.TB) map[corpus.Shape]*core.Document {
	tb.Helper()
	docs := map[corpus.Shape]*core.Document{}
	for _, spec := range []corpus.Spec{
		{Shape: corpus.NewsWeb, Seed: 101, Size: 8, Languages: 4},
		{Shape: corpus.Archive, Seed: 201, Size: 20},
		{Shape: corpus.DeepNest, Seed: 206, Size: 2, Depth: 6},
	} {
		d, _, err := corpus.Generate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		docs[spec.Shape] = d
	}
	return docs
}

// BenchmarkDecodeCorpus decodes each corpus shape in both encodings: the
// binary a view fetches and the text files and cmifc carry.
func BenchmarkDecodeCorpus(b *testing.B) {
	docs := corpusDocs(b)
	for _, shape := range corpus.Shapes() {
		d := docs[shape]
		bin, err := codec.EncodeBinary(d)
		if err != nil {
			b.Fatal(err)
		}
		text, err := codec.Encode(d, codec.WriteOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%d-nodes/binary", shape, d.Root.Count()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bin)))
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeBinary(bin); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s-%d-nodes/text", shape, d.Root.Count()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Parse(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
