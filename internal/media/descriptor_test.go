package media

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/attr"
)

// TestDescriptorTextEncodesFinalDescriptor: SliceBytes and Clip edit the
// descriptor after NewBlock, and nothing encodes it before they finish,
// so a derived block's text is its final descriptor's — not its source's,
// and not the one NewBlock first built.
func TestDescriptorTextEncodesFinalDescriptor(t *testing.T) {
	audio := CaptureAudio("voice.aud", 100, 8000, 440, 1)
	if _, err := audio.DescriptorText(); err != nil { // the source is encoded first
		t.Fatal(err)
	}
	sliced, err := SliceBytes(audio, 10, 90)
	if err != nil {
		t.Fatal(err)
	}
	clipped, err := Clip(audio, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Block{audio, sliced, clipped} {
		text, err := b.DescriptorText()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want, err := EncodeDescriptor(b.Descriptor)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text, want) {
			t.Errorf("%s: DescriptorText %q, final descriptor encodes as %q", b.Name, text, want)
		}
		back, err := ParseDescriptor(text)
		if err != nil || !back.Equal(b.Descriptor) {
			t.Errorf("%s: %q parses back as %v (%v), want %v", b.Name, text, back, err, b.Descriptor)
		}
	}
	if text, _ := sliced.DescriptorText(); bytes.Contains(text, []byte(DescSamples)) {
		t.Errorf("sliced text %q keeps the samples count SliceBytes deleted", text)
	}
	if text, _ := clipped.DescriptorText(); !bytes.Contains(text, []byte("(samples 290)")) {
		t.Errorf("clipped text %q lacks the clip's sample count", text)
	}
}

// TestDescriptorTextOnce: concurrent first calls share one encoding, later
// calls return that same slice, and a renamed copy encodes to equal bytes.
// An encoder error is returned, not an empty text.
func TestDescriptorTextOnce(t *testing.T) {
	b := CaptureText("story.txt", "a story", "en")
	const n = 8
	texts := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			text, err := b.DescriptorText()
			if err != nil {
				t.Error(err)
			}
			texts[i] = text
		}(i)
	}
	wg.Wait()
	for i, text := range texts {
		if len(text) == 0 || &text[0] != &texts[0][0] {
			t.Fatalf("call %d returned %q, not the one shared encoding %q", i, text, texts[0])
		}
	}
	renamed := b.WithName("alias.txt")
	if text, err := renamed.DescriptorText(); err != nil || !bytes.Equal(text, texts[0]) {
		t.Errorf("renamed copy encodes as %q (%v), want %q", text, err, texts[0])
	}

	bad := NewBlock("bad.txt", b.Medium, b.Payload, attr.MustList(attr.P("seq", attr.Number(1))))
	if text, err := bad.DescriptorText(); err == nil {
		t.Errorf("a descriptor with an attribute named seq encoded as %q", text)
	}
}
