package media

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
)

func TestCaptureVideoDeterministic(t *testing.T) {
	a := CaptureVideo("clip", 10, 16, 12, 25, 7)
	b := CaptureVideo("clip", 10, 16, 12, 25, 7)
	if a.ID != b.ID {
		t.Error("same seed produced different content")
	}
	c := CaptureVideo("clip", 10, 16, 12, 25, 8)
	if a.ID == c.ID {
		t.Error("different seed produced same content")
	}
	if len(a.Payload) != 10*16*12 {
		t.Errorf("payload = %d bytes", len(a.Payload))
	}
	if a.Frames() != 10 || a.Width() != 16 || a.Height() != 12 {
		t.Errorf("descriptor: %dx%d %d frames", a.Width(), a.Height(), a.Frames())
	}
	d, ok := a.Duration()
	if !ok || d != 400*time.Millisecond { // 10 frames at 25fps
		t.Errorf("duration = %v, %v", d, ok)
	}
	if err := a.Verify(); err != nil {
		t.Error(err)
	}
}

func TestCaptureAudio(t *testing.T) {
	b := CaptureAudio("voice", 1000, 8000, 440, 3)
	if b.Samples() != 8000 {
		t.Errorf("samples = %d", b.Samples())
	}
	d, ok := b.Duration()
	if !ok || d != time.Second {
		t.Errorf("duration = %v, %v", d, ok)
	}
	if b.Medium != core.MediumAudio {
		t.Error("wrong medium")
	}
	// Non-silent.
	allZero := true
	for _, s := range b.Payload {
		if s != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Error("audio payload silent")
	}
}

func TestCaptureImageAndGraphic(t *testing.T) {
	img := CaptureImage("painting", 32, 24, 5)
	if img.Width() != 32 || img.Height() != 24 || len(img.Payload) != 32*24 {
		t.Errorf("image: %dx%d, %d bytes", img.Width(), img.Height(), len(img.Payload))
	}
	g := CaptureGraphic("chart", 16, 5)
	if len(g.Payload) != 64 {
		t.Errorf("graphic payload = %d", len(g.Payload))
	}
	if n, _ := g.Descriptor.GetInt("strokes"); n != 16 {
		t.Errorf("strokes = %d", n)
	}
}

func TestCaptureText(t *testing.T) {
	b := CaptureText("caption", "Gestolen van Goghs ter waarde van tien miljoen", "nl")
	if lang, _ := b.Descriptor.GetID(DescLang); lang != "nl" {
		t.Errorf("lang = %q", lang)
	}
	d, ok := b.Duration()
	if !ok || d <= 0 {
		t.Errorf("text duration = %v, %v", d, ok)
	}
	// Empty text still gets zero duration without panicking.
	e := CaptureText("empty", "", "en")
	if d, _ := e.Duration(); d != 0 {
		t.Errorf("empty text duration = %v", d)
	}
}

func TestCapturePanicsOnBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"video": func() { CaptureVideo("x", -1, 2, 2, 25, 0) },
		"audio": func() { CaptureAudio("x", 10, 0, 440, 0) },
		"image": func() { CaptureImage("x", 0, 5, 0) },
		"graph": func() { CaptureGraphic("x", -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSliceBytes(t *testing.T) {
	b := CaptureAudio("a", 100, 8000, 440, 1)
	s, err := SliceBytes(b, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Payload) != 200 {
		t.Errorf("slice length = %d", len(s.Payload))
	}
	if s.Descriptor.Has(DescDuration) {
		t.Error("byte slice retained stale duration")
	}
	if _, err := SliceBytes(b, -1, 10); err == nil {
		t.Error("negative slice accepted")
	}
	if _, err := SliceBytes(b, 10, 5); err == nil {
		t.Error("inverted slice accepted")
	}
	if _, err := SliceBytes(b, 0, int64(len(b.Payload))+1); err == nil {
		t.Error("overlong slice accepted")
	}
}

func TestClip(t *testing.T) {
	b := CaptureAudio("a", 1000, 8000, 440, 1)
	c, err := Clip(b, 0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Samples() != 4000 {
		t.Errorf("clip samples = %d", c.Samples())
	}
	if d, _ := c.Duration(); d != 500*time.Millisecond {
		t.Errorf("clip duration = %v", d)
	}
	if _, err := Clip(CaptureImage("i", 4, 4, 1), 0, 1); err == nil {
		t.Error("clip on image accepted")
	}
	if _, err := Clip(b, 0, 9000); err == nil {
		t.Error("overlong clip accepted")
	}
}

func TestCrop(t *testing.T) {
	b := CaptureImage("painting", 16, 16, 9)
	c, err := Crop(b, 4, 4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Width() != 8 || c.Height() != 8 || len(c.Payload) != 64 {
		t.Errorf("crop: %dx%d %d bytes", c.Width(), c.Height(), len(c.Payload))
	}
	// Pixel identity: crop(4,4) origin maps to source (4,4).
	if c.Payload[0] != b.Payload[4*16+4] {
		t.Error("crop content wrong")
	}
	if _, err := Crop(b, 10, 10, 10, 10); err == nil {
		t.Error("out-of-range crop accepted")
	}
	if _, err := Crop(CaptureAudio("a", 10, 8000, 440, 1), 0, 0, 1, 1); err == nil {
		t.Error("crop on audio accepted")
	}
}

func TestSubsampleFrames(t *testing.T) {
	b := CaptureVideo("v", 20, 8, 8, 24, 3)
	s, err := SubsampleFrames(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames() != 10 {
		t.Errorf("kept %d frames", s.Frames())
	}
	if r, _ := s.Descriptor.GetInt(DescFrameRate); r != 12 {
		t.Errorf("rate = %d", r)
	}
	// Intrinsic duration preserved: 20/24s == 10/12s.
	d0, _ := b.Duration()
	d1, _ := s.Duration()
	if d0 != d1 {
		t.Errorf("duration changed: %v -> %v", d0, d1)
	}
	if _, err := SubsampleFrames(b, 7); err == nil {
		t.Error("non-divisible factor accepted")
	}
	if _, err := SubsampleFrames(b, 0); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestQuantize(t *testing.T) {
	b := CaptureImage("i", 8, 8, 2)
	q, err := Quantize(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.ColorBits() != 4 {
		t.Errorf("colorbits = %d", q.ColorBits())
	}
	for i, p := range q.Payload {
		if p&0x0f != 0 {
			t.Fatalf("pixel %d = %02x has low bits after 4-bit quantize", i, p)
		}
	}
	// Quantizing to >= current depth is the identity.
	same, err := Quantize(b, 8)
	if err != nil || same.ID != b.ID {
		t.Error("8-bit quantize of 8-bit image changed content")
	}
	if _, err := Quantize(b, 0); err == nil {
		t.Error("0-bit quantize accepted")
	}
}

// TestQuantizeMatchesByteRule holds the word-at-a-time mask to the
// byte rule (p>>s)<<s: every depth from 1 to 7, every length from 0 to
// 17 (a word, a word and a tail, tails alone) and a 1 MiB random
// payload, comparing the payload and the content address.
func TestQuantizeMatchesByteRule(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	payloads := make([][]byte, 0, 19)
	for n := 0; n <= 17; n++ {
		p := make([]byte, n)
		rng.Read(p)
		payloads = append(payloads, p)
	}
	big := make([]byte, 1<<20)
	rng.Read(big)
	payloads = append(payloads, big)
	for bits := int64(1); bits <= 7; bits++ {
		shift := uint(8 - bits)
		for _, p := range payloads {
			b := NewBlock("q.img", core.MediumImage, p, attr.List{})
			q, err := Quantize(b, bits)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, len(p))
			for i, v := range p {
				want[i] = (v >> shift) << shift
			}
			if !bytes.Equal(q.Payload, want) {
				t.Fatalf("%d bits, %d bytes: payload differs from the byte rule", bits, len(p))
			}
			if q.Address() != ContentAddress(core.MediumImage, want) {
				t.Fatalf("%d bits, %d bytes: content address differs", bits, len(p))
			}
		}
	}
}

func TestDownres(t *testing.T) {
	b := CaptureImage("i", 16, 16, 2)
	d, err := Downres(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 4 || d.Height() != 4 {
		t.Errorf("downres: %dx%d", d.Width(), d.Height())
	}
	v := CaptureVideo("v", 3, 8, 8, 25, 2)
	dv, err := Downres(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dv.Width() != 4 || len(dv.Payload) != 3*16 {
		t.Errorf("video downres: %dx%d, %d bytes", dv.Width(), dv.Height(), len(dv.Payload))
	}
	if _, err := Downres(CaptureImage("tiny", 2, 2, 1), 2); err == nil {
		t.Error("over-downres accepted")
	}
}

func TestApplyRegion(t *testing.T) {
	img := CaptureImage("i", 16, 16, 4)
	v := attr.ListOf(
		attr.Named("x", attr.Number(0)), attr.Named("y", attr.Number(0)),
		attr.Named("w", attr.Number(8)), attr.Named("h", attr.Number(8)))
	c, err := ApplyRegion(img, "crop", v)
	if err != nil || c.Width() != 8 {
		t.Errorf("ApplyRegion crop: %v, %v", c, err)
	}
	aud := CaptureAudio("a", 1000, 8000, 440, 4)
	rv := attr.ListOf(attr.Named("from", attr.Number(0)), attr.Named("to", attr.Number(100)))
	if got, err := ApplyRegion(aud, "clip", rv); err != nil || got.Samples() != 100 {
		t.Errorf("ApplyRegion clip: %v, %v", got, err)
	}
	if got, err := ApplyRegion(aud, "slice", rv); err != nil || len(got.Payload) != 100 {
		t.Errorf("ApplyRegion slice: %v, %v", got, err)
	}
	// Defaults: missing bounds take the whole payload.
	if got, err := ApplyRegion(aud, "slice", attr.ListOf()); err != nil ||
		len(got.Payload) != len(aud.Payload) {
		t.Errorf("ApplyRegion default slice: %v, %v", got, err)
	}
	if _, err := ApplyRegion(aud, "warp", rv); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	b := CaptureText("label.txt", "Story 3. Paintings", "en")
	id, err := s.Put(b)
	if err != nil || id != b.ID {
		t.Error("Put returned wrong id")
	}
	got, ok := s.Get(id)
	if !ok || got.Name != b.Name || string(got.Payload) != string(b.Payload) {
		t.Errorf("Get = %v, %v", got, ok)
	}
	byName, ok := s.GetByName("label.txt")
	if !ok || byName.ID != id {
		t.Error("GetByName failed")
	}
	if rid, ok := s.Resolve("label.txt"); !ok || rid != id {
		t.Error("Resolve failed")
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("phantom Get")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.TotalBytes() != int64(len(b.Payload)) {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
	if err := s.VerifyAll(); err != nil {
		t.Error(err)
	}
	if !s.Delete(id) || s.Delete(id) {
		t.Error("Delete semantics broken")
	}
	if _, ok := s.GetByName("label.txt"); ok {
		t.Error("name survived delete")
	}
}

// TestStoreSharesStoredBlock pins the ownership rule: the store keeps
// the block it is given and every lookup returns that very pointer; a
// variant is made with WithName (shares the payload) or Clone (does not).
func TestStoreSharesStoredBlock(t *testing.T) {
	s := NewStore()
	b := CaptureText("t", "hello", "en")
	s.Put(b)
	byName, _ := s.GetByName("t")
	byID, _ := s.Get(b.ID)
	byRef, _ := s.GetRef(b.ID)
	if byName != b || byID != b || byRef != b {
		t.Errorf("lookups returned %p %p %p, want the stored pointer %p", byName, byID, byRef, b)
	}
	var seen *Block
	s.Each(func(e *Block) bool { seen = e; return true })
	if seen != b {
		t.Errorf("Each visited %p, want %p", seen, b)
	}

	if b.WithName("t") != b {
		t.Error("WithName under the same name allocated a new block")
	}
	alias := b.WithName("alias")
	if alias == b || alias.Name != "alias" || b.Name != "t" || alias.ID != b.ID {
		t.Errorf("WithName = %+v beside original %q", alias, b.Name)
	}
	if &alias.Payload[0] != &b.Payload[0] {
		t.Error("WithName copied the payload")
	}
	clone := b.Clone()
	if &clone.Payload[0] == &b.Payload[0] {
		t.Error("Clone shares the payload")
	}
	clone.Payload[0] = 'X'
	clone.Descriptor.Set(DescTitle, attr.String("scribble"))
	if err := s.VerifyAll(); err != nil || b.Descriptor.Has(DescTitle) {
		t.Errorf("mutating a Clone reached the stored block: %v", err)
	}
}

func TestStoreNamesSorted(t *testing.T) {
	s := NewStore()
	s.Put(CaptureText("zebra", "z", "en"))
	s.Put(CaptureText("apple", "a", "en"))
	names := s.Names()
	if len(names) != 2 || names[0] != "apple" {
		t.Errorf("Names = %v", names)
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				name := strings.Repeat("x", i+1)
				s.Put(CaptureText(name, name, "en"))
				s.GetByName(name)
				s.Len()
				s.TotalBytes()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d", s.Len())
	}
}

// Property: content addressing is injective on payloads (no collisions in
// practice) and stable under clone.
func TestContentAddressProperties(t *testing.T) {
	f := func(a, b []byte) bool {
		ba := NewBlock("a", core.MediumText, a, attr.List{})
		bb := NewBlock("b", core.MediumText, b, attr.List{})
		sameContent := string(a) == string(b)
		return (ba.ID == bb.ID) == sameContent && ba.Clone().ID == ba.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockString(t *testing.T) {
	b := CaptureText("x", "hi", "en")
	if !strings.Contains(b.String(), "text") {
		t.Errorf("String = %q", b.String())
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	b := CaptureText("x", "hello world", "en")
	b.Payload[0] = 'X'
	if err := b.Verify(); err == nil {
		t.Error("tampered payload passed Verify")
	}
	c := CaptureText("y", "hello", "en")
	c.Descriptor.Set(DescBytes, attr.Number(999))
	if err := c.Verify(); err == nil {
		t.Error("wrong bytes attribute passed Verify")
	}
}
