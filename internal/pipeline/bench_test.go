package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/corpus"
	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/present"
)

// structureSpecs is cmifmark's view-structure corpus: three Archive runs
// and five DeepNest trees.
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

// BenchmarkViewStructure is cmifmark's untraced view-structure op without
// the transport: one iteration decodes each document's binary encoding and
// runs it through Run on every device profile with 30 ms of uniform
// device jitter, 24 views in all. Profile it with
//
//	go test ./internal/pipeline -run '^$' -bench ViewStructure -cpuprofile cpu.out
func BenchmarkViewStructure(b *testing.B) {
	type doc struct {
		bin   []byte
		store *media.Store
	}
	var docs []doc
	for _, spec := range structureSpecs {
		d, store, err := corpus.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		bin, err := codec.EncodeBinary(d)
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, doc{bin, store})
	}
	profiles := []filter.Profile{filter.Laptop1991, filter.Workstation1991, filter.TextTerminal}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, e := range docs {
			for k, p := range profiles {
				d, err := codec.DecodeBinary(e.bin)
				if err != nil {
					b.Fatal(err)
				}
				out, err := Run(ctx, d, e.store, Config{
					Profile: p,
					Screen:  present.Screen{W: 1152, H: 900}, Speakers: 2,
					Jitter: player.UniformJitter(uint64(1+j*len(profiles)+k), 30*time.Millisecond),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !out.Playback.Success() {
					b.Fatal("playback violated a must arc")
				}
			}
		}
	}
}
