package codec

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/units"
)

const newsText = `
; The evening news, abbreviated (Figure 4 of the paper).
(par (name news)
     (channeldict [
        (video   [(medium video) (framerate 25)])
        (sound   [(medium audio) (samplerate 8000)])
        (graphic [(medium image)])
        (captions [(medium text) (lang en)])
        (labels  [(medium text)])])
     (styledict [
        (caption-style [(channel captions)
                        (tformatting [(font helvetica) (size 12)])])])
  (seq (name story-3)
    (ext (name intro) (channel video) (file "anchor.vid")
         (duration 250fr))
    (ext (name report) (channel video) (file "scene.vid")
         (slice [(from 0) (to 1024)]))
    (imm (name label) (channel labels)
         (data "Story 3. Paintings"))
    (imm (name cap) (style caption-style)
         (syncarcs [[(type [begin must]) (src "../intro") (dest -)
                     (min -10ms) (max 100ms)]])
         (data "Gestolen van Gogh's..."))
  )
  (seq (name audio) (channel sound)
    (ext (name voice) (file "voice.aud") (clip [(from 0sa) (to 8000sa)]))
  )
)
`

func parseNews(t *testing.T) *core.Document {
	t.Helper()
	d, err := Parse(newsText)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseNews(t *testing.T) {
	d := parseNews(t)
	if d.Root.Type != core.Par || d.Root.Name() != "news" {
		t.Fatalf("root = %v", d.Root)
	}
	if d.Channels().Len() != 5 {
		t.Errorf("channels = %d", d.Channels().Len())
	}
	if d.Styles().Len() != 1 {
		t.Errorf("styles = %d", d.Styles().Len())
	}
	c, ok := d.Channels().Lookup("video")
	if !ok || c.Medium != core.MediumVideo || c.Rates.FrameRate != 25 {
		t.Errorf("video channel = %+v", c)
	}
	label := d.Root.FindByName("label")
	if string(label.Data) != "Story 3. Paintings" {
		t.Errorf("label data = %q", label.Data)
	}
	cap := d.Root.FindByName("cap")
	arcs, err := cap.Arcs()
	if err != nil || len(arcs) != 1 {
		t.Fatalf("cap arcs = %v, %v", arcs, err)
	}
	if arcs[0].MinDelay != units.MS(-10) || arcs[0].MaxDelay != units.MS(100) {
		t.Errorf("arc delays = %+v", arcs[0])
	}
	if arcs[0].Source != "../intro" || arcs[0].Dest != "" {
		t.Errorf("arc paths = %+v", arcs[0])
	}
	intro := d.Root.FindByName("intro")
	if q, ok := d.DurationOf(intro); !ok || q != units.Q(250, units.Frames) {
		t.Errorf("intro duration = %v, %v", q, ok)
	}
	// The document should validate cleanly.
	if errs := core.Errors(d.Validate()); len(errs) != 0 {
		t.Errorf("news document invalid: %v", errs)
	}
}

func TestTextRoundTripBothForms(t *testing.T) {
	d := parseNews(t)
	for _, form := range []Form{Conventional, Embedded} {
		text, err := Encode(d, WriteOptions{Form: form})
		if err != nil {
			t.Fatalf("form %v: %v", form, err)
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("form %v reparse: %v\n%s", form, err, text)
		}
		if !treesEqual(d.Root, back.Root) {
			t.Errorf("form %v: round trip tree mismatch\n%s", form, text)
		}
	}
}

func TestConventionalVsEmbeddedShapes(t *testing.T) {
	d := parseNews(t)
	conv, err := Encode(d, WriteOptions{Form: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Encode(d, WriteOptions{Form: Embedded})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(conv, "\n") < 10 {
		t.Errorf("conventional form not multi-line:\n%s", conv)
	}
	if strings.Count(strings.TrimSpace(emb), "\n") != 0 {
		t.Errorf("embedded form spans lines:\n%s", emb)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             ``,
		"not-node":          `(banana)`,
		"unclosed":          `(seq (name x)`,
		"trailing":          `(seq) (seq)`,
		"leaf-child":        `(ext (seq))`,
		"dup-attr":          `(seq (name a) (name b))`,
		"bad-escape":        `(imm (data "\q"))`,
		"unterminated-str":  `(imm (data "never ends`,
		"data-non-imm":      `(seq (data "x"))`,
		"data-not-string":   `(imm (data 42))`,
		"both-payloads":     `(imm (data "x") (datahex "00"))`,
		"bad-hex":           `(imm (datahex "zz"))`,
		"odd-hex":           `(imm (datahex "0"))`,
		"bad-unit":          `(ext (duration 5parsec))`,
		"stray-rparen":      `)`,
		"bad-char":          `(seq @)`,
		"unterminated-list": `(seq (x [1 2)`,
		"attr-no-name":      `(seq (42 x))`,
		"unwritable-attr":   `(seq (+A 1))`,
		"unwritable-item":   `(seq (x [(+b 1)]))`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("(seq\n  (name a)\n  (name b))")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T: %v", err, err)
	}
	if se.Pos.Line != 3 {
		t.Errorf("error line = %d, want 3 (%v)", se.Pos.Line, se)
	}
	if !strings.Contains(se.Error(), "3:") {
		t.Errorf("position missing from message %q", se.Error())
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "; leading comment\n(seq ; trailing\n  (name x) ; here too\n)\n"
	n, err := ParseNode(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "x" {
		t.Errorf("name = %q", n.Name())
	}
}

func TestEmptyAndMultiValuePairs(t *testing.T) {
	n, err := ParseNode(`(seq (flag) (multi 1 2 3) (single 7))`)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := n.Attrs.Get("flag")
	if items, ok := v.AsList(); !ok || len(items) != 0 {
		t.Errorf("flag = %v", v)
	}
	v, _ = n.Attrs.Get("multi")
	if items, ok := v.AsList(); !ok || len(items) != 3 {
		t.Errorf("multi = %v", v)
	}
	if got, _ := n.Attrs.GetInt("single"); got != 7 {
		t.Errorf("single = %d", got)
	}
}

func TestBinaryDataRoundTrip(t *testing.T) {
	payload := []byte{0, 1, 2, 255, 254, 128, 10, 9}
	n := core.NewImm(payload).SetName("blob")
	text, err := EncodeNode(n, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "datahex") {
		t.Errorf("binary payload not hex-encoded:\n%s", text)
	}
	back, err := ParseNode(text)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Data) != string(payload) {
		t.Errorf("payload mismatch: %v vs %v", back.Data, payload)
	}
}

func TestWriterRejectsReservedNames(t *testing.T) {
	n := core.NewSeq()
	n.Attrs.Set("data", attr.String("x"))
	if _, err := EncodeNode(n, WriteOptions{}); err == nil {
		t.Error("reserved attribute name accepted")
	}
	n2 := core.NewSeq()
	n2.Attrs.Set("seq", attr.Number(1))
	if _, err := EncodeNode(n2, WriteOptions{}); err == nil {
		t.Error("node-type attribute name accepted")
	}
	n3 := core.NewSeq()
	n3.Attrs.Set("has space", attr.Number(1))
	if _, err := EncodeNode(n3, WriteOptions{}); err == nil {
		t.Error("non-identifier attribute name accepted")
	}
}

func TestEmptyIDRoundTrip(t *testing.T) {
	n := core.NewSeq()
	n.Attrs.Set("empty", attr.ID(""))
	text, err := EncodeNode(n, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseNode(text)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := back.Attrs.Get("empty")
	if id, ok := v.AsID(); !ok || id != "" {
		t.Errorf("empty ID round trip = %v", v)
	}
}

// treesEqual compares structure, attributes and payloads.
func treesEqual(a, b *core.Node) bool {
	if a.Type != b.Type || !a.Attrs.Equal(b.Attrs) ||
		string(a.Data) != string(b.Data) ||
		a.NumChildren() != b.NumChildren() {
		return false
	}
	for i := range a.Children() {
		if !treesEqual(a.Child(i), b.Child(i)) {
			return false
		}
	}
	return true
}

// genValue builds a random attribute value for round-trip fuzzing.
func genValue(rng *rand.Rand, depth int) attr.Value {
	switch k := rng.Intn(4); {
	case k == 0:
		return attr.ID(genIdent(rng))
	case k == 1:
		return attr.String(genString(rng))
	case k == 2:
		u := units.Unit(rng.Intn(6))
		return attr.Quantity(units.Q(rng.Int63n(1e9)-5e8, u))
	default:
		if depth >= 3 {
			return attr.Number(rng.Int63n(100))
		}
		n := rng.Intn(4)
		items := make([]attr.Item, 0, n)
		for i := 0; i < n; i++ {
			it := attr.Item{Value: genValue(rng, depth+1)}
			if rng.Intn(2) == 0 {
				it.Name = genIdent(rng)
			}
			items = append(items, it)
		}
		return attr.ListOf(items...)
	}
}

const identChars = "abcdefghijklmnopqrstuvwxyz-_."

func genIdent(rng *rand.Rand) string {
	n := 1 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = identChars[rng.Intn(len(identChars))]
	}
	// Avoid the node-type keywords and reserved names.
	s := string(b)
	switch s {
	case "seq", "par", "ext", "imm", "data", "datahex", "-":
		return s + "x"
	}
	return s
}

func genString(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]rune, n)
	alphabet := []rune("abc \"\\\n\tàé日")
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// genTree builds a random document tree.
func genTree(rng *rand.Rand, depth int) *core.Node {
	var n *core.Node
	if depth >= 4 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			n = core.NewExt()
			n.Attrs.Set("file", attr.String(genString(rng)))
		} else {
			payload := make([]byte, rng.Intn(20))
			rng.Read(payload)
			n = core.NewImm(payload)
		}
	} else {
		if rng.Intn(2) == 0 {
			n = core.NewSeq()
		} else {
			n = core.NewPar()
		}
		kids := rng.Intn(4)
		for i := 0; i < kids; i++ {
			n.AddChild(genTree(rng, depth+1))
		}
	}
	attrs := rng.Intn(4)
	for i := 0; i < attrs; i++ {
		n.Attrs.Set(genIdent(rng), genValue(rng, 0))
	}
	return n
}

func TestRandomTreeTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		tree := genTree(rng, 0)
		for _, form := range []Form{Conventional, Embedded} {
			text, err := EncodeNode(tree, WriteOptions{Form: form})
			if err != nil {
				t.Fatalf("iter %d encode: %v", i, err)
			}
			back, err := ParseNode(text)
			if err != nil {
				t.Fatalf("iter %d parse: %v\n%s", i, err, text)
			}
			if !treesEqual(tree, back) {
				t.Fatalf("iter %d form %v mismatch:\n%s", i, form, text)
			}
		}
	}
}

func TestRandomTreeBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		tree := genTree(rng, 0)
		data, err := EncodeBinaryNode(tree)
		if err != nil {
			t.Fatalf("iter %d encode: %v", i, err)
		}
		back, err := DecodeBinaryNode(data)
		if err != nil {
			t.Fatalf("iter %d decode: %v", i, err)
		}
		if !treesEqual(tree, back) {
			t.Fatalf("iter %d binary mismatch", i)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	d := parseNews(t)
	data, err := EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(data); err != nil {
		t.Fatalf("clean decode failed: %v", err)
	}
	// Truncations must never panic, and must error.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeBinaryNode(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeBinaryNode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), data...)
	bad[4] = 99
	if _, err := DecodeBinaryNode(bad); err == nil {
		t.Error("bad version accepted")
	}
	// Trailing garbage.
	bad = append(append([]byte(nil), data...), 0xAA)
	if _, err := DecodeBinaryNode(bad); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	d := parseNews(t)
	text, err := Encode(d, WriteOptions{Form: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(text) {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", len(bin), len(text))
	}
}
