package core

import (
	"encoding/binary"
	"fmt"
)

// Change serialization: the Change log records edits as live *Node
// pointers, which cannot travel. A ChangeRecord is the wire form of one
// edit — path-addressed and self-contained, essentially a serialized
// edit operation. Records address nodes by their pre-edit paths, so a
// receiver holding a replica at the sender's generation can re-execute
// the record through internal/edit and land on a structurally identical
// document whose own change log advances exactly like the original's.
// That re-execution property is what makes server-push deltas drive
// incremental rescheduling on thousands of replicas: each watcher pays
// per-edit cost, never refetch-and-resolve.

// EditOp discriminates the edit operation a ChangeRecord re-executes.
// The values are wire-stable; never renumber.
type EditOp byte

const (
	// OpSetAttr sets attribute Name on the node at Path; Payload is the
	// binary-encoded value.
	OpSetAttr EditOp = 1
	// OpAddArc appends a synchronization arc to the node at Path;
	// Payload is the arc's binary-encoded attribute value.
	OpAddArc EditOp = 2
	// OpRemoveArc removes the arc at position Index from the node at
	// Path.
	OpRemoveArc EditOp = 3
	// OpInsert inserts a subtree (Payload, binary node encoding) under
	// the composite at Dest, at position Index.
	OpInsert EditOp = 4
	// OpRemove deletes the subtree at Path.
	OpRemove EditOp = 5
	// OpMove reparents the subtree at Path under the composite at Dest,
	// at position Index.
	OpMove EditOp = 6
	// OpRename renames the node at Path to Name.
	OpRename EditOp = 7
)

// String names the operation for diagnostics.
func (op EditOp) String() string {
	switch op {
	case OpSetAttr:
		return "setattr"
	case OpAddArc:
		return "addarc"
	case OpRemoveArc:
		return "removearc"
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	case OpMove:
		return "move"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("editop(%d)", byte(op))
	}
}

// ChangeRecord is the serialized, path-addressed form of one edit. Which
// fields are meaningful depends on Op; unused fields stay zero. Payload
// bytes are opaque here — internal/edit produces and consumes them with
// the codec package, keeping this package free of codec dependencies.
type ChangeRecord struct {
	Op EditOp
	// Path addresses the edited node, pre-edit (setattr, arcs, remove,
	// move, rename).
	Path string
	// Dest addresses the destination parent, pre-edit (insert, move).
	Dest string
	// Index is the insertion position (insert, move; clamped) or the
	// arc index (removearc).
	Index int
	// Name is the attribute name (setattr) or the new node name (rename).
	Name string
	// Payload carries the encoded value (setattr), arc value (addarc)
	// or subtree (insert).
	Payload []byte
}

// Kind maps the operation to the ChangeKind its re-execution appends to
// the receiving document's change log.
func (rec ChangeRecord) Kind() ChangeKind {
	switch rec.Op {
	case OpSetAttr:
		return ChangeAttr
	case OpAddArc, OpRemoveArc:
		return ChangeArcs
	case OpInsert:
		return ChangeInsert
	case OpRemove:
		return ChangeRemove
	case OpMove:
		return ChangeMove
	case OpRename:
		return ChangeRename
	default:
		return ChangeGlobal
	}
}

// changeWireVersion versions the record blob framing.
const changeWireVersion = 1

// maxChangeRecords bounds how many records one blob may carry, keeping a
// hostile length prefix from driving allocation.
const maxChangeRecords = 1 << 16

// minRecordBytes is the smallest encoded record: the op byte and five
// one-byte varints (four empty strings and index 0).
const minRecordBytes = 6

// EncodeChangeRecords packs an ordered edit batch into one blob:
//
//	blob   := u8 version | uvarint count | record*
//	record := u8 op | str path | str dest | varint index | str name | str payload
//	str    := uvarint len | bytes
func EncodeChangeRecords(recs []ChangeRecord) []byte {
	var scratch [binary.MaxVarintLen64]byte
	out := []byte{changeWireVersion}
	out = append(out, scratch[:binary.PutUvarint(scratch[:], uint64(len(recs)))]...)
	putStr := func(s string) {
		out = append(out, scratch[:binary.PutUvarint(scratch[:], uint64(len(s)))]...)
		out = append(out, s...)
	}
	for _, rec := range recs {
		out = append(out, byte(rec.Op))
		putStr(rec.Path)
		putStr(rec.Dest)
		out = append(out, scratch[:binary.PutVarint(scratch[:], int64(rec.Index))]...)
		putStr(rec.Name)
		out = append(out, scratch[:binary.PutUvarint(scratch[:], uint64(len(rec.Payload)))]...)
		out = append(out, rec.Payload...)
	}
	return out
}

// DecodeChangeRecords unpacks a record blob. It never panics on hostile
// input: every length is bounds-checked against the remaining bytes
// before use, and trailing garbage is rejected.
func DecodeChangeRecords(data []byte) ([]ChangeRecord, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty change blob")
	}
	if data[0] != changeWireVersion {
		return nil, fmt.Errorf("core: unsupported change blob version %d", data[0])
	}
	off := 1
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("core: truncated varint at offset %d", off)
		}
		off += n
		return v, nil
	}
	take := func() ([]byte, error) {
		n, err := uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)-off) {
			return nil, fmt.Errorf("core: field length %d exceeds %d remaining bytes", n, len(data)-off)
		}
		b := data[off : off+int(n)]
		off += int(n)
		return b, nil
	}
	count, err := uvarint()
	if err != nil {
		return nil, err
	}
	if count > maxChangeRecords {
		return nil, fmt.Errorf("core: change blob declares %d records (limit %d)", count, maxChangeRecords)
	}
	// A count the remaining bytes cannot hold is refused before it sizes
	// the allocation below.
	if count > uint64(len(data)-off)/minRecordBytes {
		return nil, fmt.Errorf("core: truncated record: %d declared in %d bytes", count, len(data)-off)
	}
	recs := make([]ChangeRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		if off >= len(data) {
			return nil, fmt.Errorf("core: truncated record %d", i)
		}
		rec := ChangeRecord{Op: EditOp(data[off])}
		off++
		if rec.Op < OpSetAttr || rec.Op > OpRename {
			return nil, fmt.Errorf("core: record %d: unknown edit op %d", i, byte(rec.Op))
		}
		path, err := take()
		if err != nil {
			return nil, err
		}
		dest, err := take()
		if err != nil {
			return nil, err
		}
		idx, n := binary.Varint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("core: record %d: truncated index", i)
		}
		off += n
		name, err := take()
		if err != nil {
			return nil, err
		}
		payload, err := take()
		if err != nil {
			return nil, err
		}
		rec.Path, rec.Dest, rec.Index, rec.Name = string(path), string(dest), int(idx), string(name)
		if len(payload) > 0 {
			rec.Payload = append([]byte(nil), payload...)
		}
		recs = append(recs, rec)
	}
	if off != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after change records", len(data)-off)
	}
	return recs, nil
}
