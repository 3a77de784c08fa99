package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/units"
)

// Binary format: a compact tag/varint encoding used by the interchange
// transport when the human-readable property is not needed. The paper keeps
// documents human-readable ("our expectation is that the documents
// themselves will be created and viewed using appropriate user interface
// tools", section 6); the binary codec exists so the text-vs-binary trade
// can be measured (cmifbench F5 prints both sizes).
//
// Layout:
//
//	document := magic(4) version(1) node
//	node     := nodeType(1) attrCount(varint) attr* dataLen(varint) data
//	            childCount(varint) node*
//	attr     := name(str) value
//	value    := kind(1) payload
//	  kind 0 ID:     str
//	  kind 1 NUMBER: unit(1) zigzag-varint
//	  kind 2 STRING: str
//	  kind 3 LIST:   count(varint) item*   item := name(str; may be empty) value
//	str      := len(varint) bytes
var binaryMagic = [4]byte{'C', 'M', 'I', 'F'}

const binaryVersion = 1

// IsBinary reports whether data begins with the binary codec's header, the
// single source of truth for format detection.
func IsBinary(data []byte) bool {
	return len(data) >= len(binaryMagic) && [4]byte(data[:4]) == binaryMagic
}

// EncodeBinary serializes the document in the binary form.
func EncodeBinary(d *core.Document) ([]byte, error) {
	return EncodeBinaryNode(d.Root)
}

// EncodeBinaryNode serializes a node tree in the binary form.
func EncodeBinaryNode(n *core.Node) ([]byte, error) {
	var b bytes.Buffer
	b.Write(binaryMagic[:])
	b.WriteByte(binaryVersion)
	if err := encodeNode(&b, n); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeBinary parses a binary document and decodes its dictionaries.
func DecodeBinary(data []byte) (*core.Document, error) {
	n, err := DecodeBinaryNode(data)
	if err != nil {
		return nil, err
	}
	return core.NewDocument(n)
}

// DecodeBinaryNode parses a binary node tree.
func DecodeBinaryNode(data []byte) (*core.Node, error) {
	r := newByteReader(data)
	var magic [4]byte
	if err := r.read(magic[:]); err != nil {
		return nil, fmt.Errorf("codec: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("codec: bad magic %q", magic[:])
	}
	ver, err := r.byte()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("codec: unsupported binary version %d", ver)
	}
	n, err := decodeNode(r, 0)
	if err != nil {
		return nil, err
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("codec: %d trailing bytes after document", len(r.data)-r.off)
	}
	return n, nil
}

const maxBinaryDepth = 10000

func encodeNode(b *bytes.Buffer, n *core.Node) error {
	if n.Type != core.Imm && len(n.Data) > 0 {
		return fmt.Errorf("codec: data on non-imm %v node", n.Type)
	}
	b.WriteByte(byte(n.Type))
	pairs := n.Attrs.Pairs()
	putUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		if err := CheckAttrName(p.Name); err != nil {
			return err
		}
		putString(b, p.Name)
		if err := encodeValue(b, p.Value); err != nil {
			return err
		}
	}
	putUvarint(b, uint64(len(n.Data)))
	b.Write(n.Data)
	putUvarint(b, uint64(n.NumChildren()))
	for _, c := range n.Children() {
		if err := encodeNode(b, c); err != nil {
			return err
		}
	}
	return nil
}

func decodeNode(r *byteReader, depth int) (*core.Node, error) {
	if depth > maxBinaryDepth {
		return nil, fmt.Errorf("codec: tree deeper than %d", maxBinaryDepth)
	}
	tb, err := r.byte()
	if err != nil {
		return nil, err
	}
	if tb > byte(core.Imm) {
		return nil, fmt.Errorf("codec: bad node type byte %d", tb)
	}
	n := core.NewNode(core.NodeType(tb))
	attrCount, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	n.Attrs.Grow(r.presize(attrCount))
	for i := uint64(0); i < attrCount; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		if err := CheckAttrName(name); err != nil {
			return nil, err
		}
		v, err := decodeValue(r, 0)
		if err != nil {
			return nil, err
		}
		if n.Attrs.Has(name) {
			return nil, fmt.Errorf("codec: duplicate attribute %q", name)
		}
		n.Attrs.Set(name, v)
	}
	dataLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if dataLen > 0 {
		if n.Type != core.Imm {
			return nil, fmt.Errorf("codec: data on non-imm %v node", n.Type)
		}
		if dataLen > uint64(len(r.data)-r.off) {
			return nil, fmt.Errorf("codec: data length %d exceeds input", dataLen)
		}
		n.Data = make([]byte, dataLen)
		if err := r.read(n.Data); err != nil {
			return nil, err
		}
	}
	childCount, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n.Type.IsLeaf() && childCount > 0 {
		return nil, fmt.Errorf("codec: %v leaf with %d children", n.Type, childCount)
	}
	n.GrowChildren(r.presize(childCount))
	for i := uint64(0); i < childCount; i++ {
		c, err := decodeNode(r, depth+1)
		if err != nil {
			return nil, err
		}
		n.AddChild(c)
	}
	return n, nil
}

// EncodeBinaryValue serializes one attribute value in the binary form —
// the payload format change records (core.ChangeRecord) use for setattr
// and addarc edits.
func EncodeBinaryValue(v attr.Value) ([]byte, error) {
	var b bytes.Buffer
	if err := encodeValue(&b, v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeBinaryValue parses one binary-encoded attribute value, rejecting
// trailing bytes.
func DecodeBinaryValue(data []byte) (attr.Value, error) {
	r := newByteReader(data)
	v, err := decodeValue(r, 0)
	if err != nil {
		return attr.Value{}, err
	}
	if r.off != len(r.data) {
		return attr.Value{}, fmt.Errorf("codec: %d trailing bytes after value", len(r.data)-r.off)
	}
	return v, nil
}

func encodeValue(b *bytes.Buffer, v attr.Value) error {
	switch v.Kind() {
	case attr.KindID:
		id, _ := v.AsID()
		b.WriteByte(0)
		putString(b, id)
	case attr.KindNumber:
		q, _ := v.AsNumber()
		b.WriteByte(1)
		b.WriteByte(byte(q.Unit))
		putVarint(b, q.Value)
	case attr.KindString:
		s, _ := v.AsString()
		b.WriteByte(2)
		putString(b, s)
	case attr.KindList:
		items, _ := v.AsList()
		b.WriteByte(3)
		putUvarint(b, uint64(len(items)))
		for _, it := range items {
			if err := checkItemName(it.Name); err != nil {
				return err
			}
			putString(b, it.Name)
			if err := encodeValue(b, it.Value); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("codec: cannot binary-encode kind %v", v.Kind())
	}
	return nil
}

func decodeValue(r *byteReader, depth int) (attr.Value, error) {
	if depth > maxBinaryDepth {
		return attr.Value{}, fmt.Errorf("codec: value deeper than %d", maxBinaryDepth)
	}
	kind, err := r.byte()
	if err != nil {
		return attr.Value{}, err
	}
	switch kind {
	case 0:
		s, err := r.str()
		if err != nil {
			return attr.Value{}, err
		}
		return attr.ID(s), nil
	case 1:
		u, err := r.byte()
		if err != nil {
			return attr.Value{}, err
		}
		if u > byte(units.Samples) {
			return attr.Value{}, fmt.Errorf("codec: bad unit byte %d", u)
		}
		v, err := r.varint()
		if err != nil {
			return attr.Value{}, err
		}
		return attr.Quantity(units.Q(v, units.Unit(u))), nil
	case 2:
		s, err := r.str()
		if err != nil {
			return attr.Value{}, err
		}
		return attr.String(s), nil
	case 3:
		count, err := r.uvarint()
		if err != nil {
			return attr.Value{}, err
		}
		if count > uint64(len(r.data)-r.off) {
			return attr.Value{}, fmt.Errorf("codec: list count %d exceeds input", count)
		}
		items := make([]attr.Item, 0, r.presize(count))
		for i := uint64(0); i < count; i++ {
			name, err := r.str()
			if err != nil {
				return attr.Value{}, err
			}
			if err := checkItemName(name); err != nil {
				return attr.Value{}, err
			}
			v, err := decodeValue(r, depth+1)
			if err != nil {
				return attr.Value{}, err
			}
			items = append(items, attr.Item{Name: name, Value: v})
		}
		return attr.ListOf(items...), nil
	default:
		return attr.Value{}, fmt.Errorf("codec: bad value kind byte %d", kind)
	}
}

// byteReader is a bounds-checked cursor over the input.
type byteReader struct {
	data []byte
	off  int
	// room is how many more attributes, children and list items the
	// decoder may allocate slots for before reading them. Each takes at
	// least minElemBytes of input, so an honest input never runs out of
	// room, and lying counts, however deeply nested, cannot make the
	// decoder allocate more slots than the input could describe.
	room uint64
}

// minElemBytes is the smallest encoding of an attribute or a list item
// (name length, kind, one payload byte); a child node takes more.
const minElemBytes = 3

func newByteReader(data []byte) *byteReader {
	return &byteReader{data: data, room: uint64(len(data) / minElemBytes)}
}

// presize returns the capacity to allocate for count elements about to
// be read, taking it from the reader's room.
func (r *byteReader) presize(count uint64) int {
	n := min(count, r.room)
	r.room -= n
	return int(n)
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) read(dst []byte) error {
	if len(r.data)-r.off < len(dst) {
		return io.ErrUnexpectedEOF
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
	return nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	r.off += n
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.off) || n > math.MaxInt32 {
		return "", fmt.Errorf("codec: string length %d exceeds input", n)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

func putVarint(b *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	b.Write(tmp[:n])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}
