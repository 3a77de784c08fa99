package codec

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
)

// TestDeepNestingParse exercises recursion depth on both codecs.
func TestDeepNestingParse(t *testing.T) {
	const depth = 500
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("(seq ")
	}
	b.WriteString("(imm (data \"x\"))")
	for i := 0; i < depth; i++ {
		b.WriteString(")")
	}
	n, err := ParseNode(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if n.Count() != depth+1 {
		t.Errorf("count = %d", n.Count())
	}
	// Round-trip through binary too.
	data, err := EncodeBinaryNode(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinaryNode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != depth+1 {
		t.Errorf("binary count = %d", back.Count())
	}
}

// TestBinaryDepthGuard rejects trees deeper than the guard limit without
// exhausting the stack (crafted input, not a builder-constructed tree).
func TestBinaryDepthGuard(t *testing.T) {
	// Craft a malicious buffer: header + maxDepth+2 nested seq nodes each
	// claiming one child.
	var raw []byte
	raw = append(raw, binaryMagic[:]...)
	raw = append(raw, binaryVersion)
	for i := 0; i < maxBinaryDepth+2; i++ {
		raw = append(raw, byte(core.Seq)) // node type
		raw = append(raw, 0)              // attrCount
		raw = append(raw, 0)              // dataLen
		raw = append(raw, 1)              // childCount = 1
	}
	if _, err := DecodeBinaryNode(raw); err == nil {
		t.Error("over-deep binary document accepted")
	}
}

// TestListDepthValues exercises nested list values through both codecs.
func TestListDepthValues(t *testing.T) {
	v := attr.Number(1)
	for i := 0; i < 50; i++ {
		v = attr.VList(v)
	}
	n := core.NewSeq()
	n.Attrs.Set("deep", v)
	text, err := EncodeNode(n, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseNode(text)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.Attrs.Get("deep")
	if !got.Equal(v) {
		t.Error("deep list round trip mismatch")
	}
	bin, err := EncodeBinaryNode(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinaryNode(bin); err != nil {
		t.Fatal(err)
	}
}

// TestLexerEdgeTokens covers unusual but legal token sequences.
func TestLexerEdgeTokens(t *testing.T) {
	cases := map[string]bool{
		`(seq (x -))`:           true,  // empty-ID value
		`(seq (x -7ms))`:        true,  // negative quantity
		`(seq (x +7))`:          true,  // explicit positive
		`(seq (x -abc))`:        true,  // sign-prefixed identifier
		`(seq (x "a\"b"))`:      true,  // escaped quote
		`(seq (x [1 [2 [3]]]))`: true,  // nested anonymous lists
		`(seq (x 7q))`:          false, // bad unit
		`(seq (x @))`:           false, // illegal character
	}
	for src, ok := range cases {
		_, err := ParseNode(src)
		if ok && err != nil {
			t.Errorf("%s: unexpected error %v", src, err)
		}
		if !ok && err == nil {
			t.Errorf("%s: accepted", src)
		}
	}
}

// rawNode is the binary form of a one-node document with the given
// attribute bytes (count first) and payload, bypassing the encoder's
// checks.
func rawNode(t core.NodeType, attrs []byte, data string) []byte {
	raw := append(append([]byte(nil), binaryMagic[:]...), binaryVersion, byte(t))
	raw = append(raw, attrs...)
	raw = append(raw, byte(len(data)))
	raw = append(raw, data...)
	return append(raw, 0) // no children
}

// TestBinaryRefusesWhatTextCannotCarry: the binary codec reads and
// writes only documents the text form can render, so a document a
// client puts in binary is one every text client can fetch.
func TestBinaryRefusesWhatTextCannotCarry(t *testing.T) {
	id := []byte{0, 1, 'v'} // kind ID, "v"
	attrNamed := func(name string) []byte {
		return append(append([]byte{1, byte(len(name))}, name...), id...)
	}
	for name, raw := range map[string][]byte{
		`attribute "+A"`:   rawNode(core.Ext, attrNamed("+A"), ""),
		`attribute "seq"`:  rawNode(core.Ext, attrNamed("seq"), ""),
		`attribute "data"`: rawNode(core.Imm, attrNamed("data"), ""),
		`attribute "-5"`:   rawNode(core.Ext, attrNamed("-5"), ""),
		`attribute ""`:     rawNode(core.Ext, attrNamed(""), ""),
		`list item "+A"`:   rawNode(core.Ext, append([]byte{1, 1, 'x', 3, 1, 2, '+', 'A'}, id...), ""),
		`data on a seq`:    rawNode(core.Seq, []byte{0}, "x"),
		`data on an ext`:   rawNode(core.Ext, []byte{0}, "x"),
	} {
		if _, err := DecodeBinaryNode(raw); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	for _, raw := range [][]byte{rawNode(core.Ext, attrNamed("name"), ""), rawNode(core.Imm, []byte{0}, "x")} {
		if _, err := DecodeBinaryNode(raw); err != nil {
			t.Errorf("a renderable node is refused: %v", err)
		}
	}

	n := core.NewSeq()
	n.Attrs.Set("+A", attr.ID("v"))
	if _, err := EncodeBinaryNode(n); err == nil {
		t.Error("the encoder wrote an attribute the text form cannot carry")
	}
	n = core.NewSeq()
	n.Attrs.Set("x", attr.ListOf(attr.Named("+A", attr.ID("v"))))
	if _, err := EncodeBinaryNode(n); err == nil {
		t.Error("the encoder wrote a list item the text form cannot carry")
	}
	n = core.NewSeq()
	n.Data = []byte("x")
	if _, err := EncodeBinaryNode(n); err == nil {
		t.Error("the encoder wrote data on a seq node")
	}
}

// TestWriterQuotesIDsThatLexAsSomethingElse: an ID the lexer would read
// back as a number or as the empty ID is written as a string, so the
// text form parses, and parses to the same characters.
func TestWriterQuotesIDsThatLexAsSomethingElse(t *testing.T) {
	for _, id := range []string{"-5", "-5x", "-"} {
		n := core.NewSeq()
		n.Attrs.Set("v", attr.ID(id))
		text, err := EncodeNode(n, WriteOptions{Form: Embedded})
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseNode(text)
		if err != nil {
			t.Fatalf("ID %q: the text form %s does not parse: %v", id, text, err)
		}
		v, _ := back.Attrs.Get("v")
		if got, _ := v.Text(); got != id {
			t.Errorf("ID %q comes back from %s as %q", id, text, got)
		}
	}
}

// TestLyingCountsAllocateWithinTheInput: the decoder pre-sizes attribute
// lists, children and list values from the counts it reads, but nested
// counts that each claim the whole remaining input must not make it
// allocate more than the input could describe.
func TestLyingCountsAllocateWithinTheInput(t *testing.T) {
	const depth = 300
	// A list attribute whose first item is a list, and so on, each
	// claiming as many items as there are bytes left.
	var nested []byte
	for i := 0; i < depth; i++ {
		nested = append(nested, 3, 0, 0, 0) // list, count (patched), unnamed item
	}
	lists := append([]byte{1, 1, 'x'}, nested...)
	raw := rawNode(core.Seq, lists, "")
	// A chain of seq nodes, each claiming as many children as there are
	// bytes left.
	chain := append(append([]byte(nil), binaryMagic[:]...), binaryVersion)
	for i := 0; i < depth; i++ {
		chain = append(chain, byte(core.Seq), 0, 0, 0, 0, 0)
	}
	patch := func(data []byte, at func(i int) (int, bool)) {
		for i := range data {
			if off, ok := at(i); ok {
				// A two-byte uvarint: the bytes that follow it.
				left := len(data) - off - 2
				data[off], data[off+1] = byte(left)|0x80, byte(left>>7)
			}
		}
	}
	start := len(raw) - 2 - len(nested) // the first list's kind byte
	patch(raw, func(i int) (int, bool) {
		return i + 1, i >= start && i < start+len(nested) && (i-start)%4 == 0
	})
	head := len(binaryMagic) + 1
	patch(chain, func(i int) (int, bool) {
		return i + 3, i >= head && (i-head)%6 == 0
	})
	for name, data := range map[string][]byte{"nested lists": raw, "nested children": chain} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := DecodeBinaryNode(data); err == nil {
			t.Fatalf("%s: a lying document decoded", name)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(data), alloc)
		}
	}
}
