package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/newsdoc"
	"repro/internal/pipeline"
	"repro/internal/present"
)

// TestSharedBlocksStayImmutable is the guard behind the ownership rule
// (media.Block): stores, caches and fetch results all hand out the one
// stored pointer, so everything that reads blocks — the pipeline with a
// transforming profile, filter.Apply, the media operations, descriptor
// encoding (the server's and direct DescriptorText calls), batched
// fetches — must leave them exactly as they were. Each reader runs once
// on its own with the sources compared after it (a deterministic culprit
// is named), then all of them run from several goroutines at once
// against the one store, so under -race a write to a shared block is reported even if its effect
// cancels out.
func TestSharedBlocksStayImmutable(t *testing.T) {
	ctx := context.Background()
	doc, store, err := newsdoc.Build(newsdoc.Config{Stories: 1, FrameW: 32, FrameH: 24})
	if err != nil {
		t.Fatal(err)
	}
	names := store.Names()
	type snapshot struct {
		name    string
		payload []byte
		desc    attr.List
	}
	before := map[*media.Block]snapshot{}
	store.Each(func(b *media.Block) bool {
		before[b] = snapshot{b.Name, bytes.Clone(b.Payload), b.Descriptor.Clone()}
		return true
	})
	unchanged := func(after string) {
		t.Helper()
		if err := store.VerifyAll(); err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		seen := 0
		store.Each(func(b *media.Block) bool {
			was, ok := before[b]
			if !ok || b.Name != was.name || !bytes.Equal(b.Payload, was.payload) || !b.Descriptor.Equal(was.desc) {
				t.Fatalf("after %s: stored block %q (%.12s) is not the block that was put", after, b.Name, b.ID)
			}
			seen++
			return true
		})
		if seen != len(before) {
			t.Fatalf("after %s: %d blocks stored, %d put", after, seen, len(before))
		}
	}

	addr, _ := startServer(t, NewRegistry(store))
	dial := func() *Client {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// Every name twice in one call: duplicates share one block, and it
	// carries the source's bytes.
	fetch := func(c *Client) error {
		got, err := c.GetBlocks(ctx, append(append([]string(nil), names...), names...))
		if err != nil {
			return err
		}
		for i, b := range got {
			src, _ := store.GetByName(names[i%len(names)])
			if b == nil || b != got[i%len(names)] || !bytes.Equal(b.Payload, src.Payload) {
				return fmt.Errorf("GetBlocks[%d] (%s) = %v, want one shared block equal to the source", i, names[i%len(names)], b)
			}
		}
		return nil
	}
	byMedium := map[core.Medium]*media.Block{}
	store.Each(func(b *media.Block) bool { byMedium[b.Medium] = b; return true })
	video, audio, image := byMedium[core.MediumVideo], byMedium[core.MediumAudio], byMedium[core.MediumImage]
	if video == nil || audio == nil || image == nil {
		t.Fatalf("corpus lacks a video, audio or image block: %v", names)
	}
	span := func(from, to int64) attr.Value {
		return attr.ListOf(attr.Named("from", attr.Number(from)), attr.Named("to", attr.Number(to)))
	}
	readers := []struct {
		name string
		run  func(c *Client) error
	}{
		{"pipeline.Run", func(*Client) error {
			out, err := pipeline.Run(ctx, doc, store, pipeline.Config{
				Profile: filter.Laptop1991, Screen: present.Screen{W: 640, H: 480}, Speakers: 1})
			if err != nil {
				return err
			}
			if _, transform, _ := out.FilterMap.Counts(); transform == 0 {
				return fmt.Errorf("the laptop profile transformed nothing")
			}
			return out.Filtered.VerifyAll()
		}},
		{"filter.Apply", func(*Client) error {
			for _, p := range []filter.Profile{filter.Laptop1991, filter.Workstation1991} {
				fm, err := filter.Evaluate(doc, store, p)
				if err != nil {
					return err
				}
				if _, err := filter.Apply(fm, store); err != nil {
					return err
				}
			}
			return nil
		}},
		{"media operations", func(*Client) error {
			for _, op := range []func() (*media.Block, error){
				func() (*media.Block, error) { return media.Quantize(video, 8) }, // nothing to do: returns its input
				func() (*media.Block, error) { return media.Quantize(image, 2) },
				func() (*media.Block, error) { return media.Downres(image, 0) },
				func() (*media.Block, error) { return media.Downres(video, 2) },
				func() (*media.Block, error) { return media.SubsampleFrames(video, 5) },
				func() (*media.Block, error) { return media.ApplyRegion(audio, "clip", span(10, 500)) },
				func() (*media.Block, error) { return media.ApplyRegion(video, "slice", span(1, 99)) },
				func() (*media.Block, error) {
					return media.ApplyRegion(image, "crop", attr.ListOf(attr.Named("x", attr.Number(1)),
						attr.Named("y", attr.Number(2)), attr.Named("w", attr.Number(8)), attr.Named("h", attr.Number(6))))
				},
			} {
				out, err := op()
				if err != nil {
					return err
				}
				if err := out.Verify(); err != nil {
					return err
				}
				if err := encodesItsDescriptor(out); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Block.DescriptorText", func(*Client) error {
			var err error
			store.Each(func(b *media.Block) bool {
				err = encodesItsDescriptor(b)
				return err == nil
			})
			return err
		}},
		{"Client.GetBlocks", fetch},
	}

	first := dial()
	for _, r := range readers {
		if err := r.run(first); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		unchanged(r.name)
	}

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		c := dial()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*len(readers); i++ {
				r := readers[(g+i)%len(readers)]
				if err := r.run(c); err != nil {
					t.Errorf("goroutine %d, %s: %v", g, r.name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	unchanged("the concurrent phase")
}

// encodesItsDescriptor checks that b's descriptor text is the encoding of
// its descriptor as it stands, and parses back to it.
func encodesItsDescriptor(b *media.Block) error {
	text, err := b.DescriptorText()
	if err != nil {
		return fmt.Errorf("%s: %w", b.Name, err)
	}
	want, err := media.EncodeDescriptor(b.Descriptor)
	if err != nil {
		return fmt.Errorf("%s: %w", b.Name, err)
	}
	if !bytes.Equal(text, want) {
		return fmt.Errorf("%s: DescriptorText %q, descriptor encodes as %q", b.Name, text, want)
	}
	if back, err := media.ParseDescriptor(text); err != nil || !back.Equal(b.Descriptor) {
		return fmt.Errorf("%s: %q parses as %v (%v), want %v", b.Name, text, back, err, b.Descriptor)
	}
	return nil
}
