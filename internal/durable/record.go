// Package durable gives the server a memory: an append-only, checksummed
// write-ahead log of every corpus mutation plus periodic snapshots, so a
// killed daemon recovers its exact pre-kill state on restart. The paper's
// servers hold the authoritative document and block state for every
// presentation; a production deployment cannot forget that corpus on every
// deploy (Gray's locally-served-computer argument: the local server's whole
// value is durable, recoverable state near the client).
//
// Layout of a data directory:
//
//	data/
//	  wal-<seq>.wal    append-only segments of framed records
//	  snap-<seq>.snap  snapshot files, same record format, written
//	                   atomically (temp file + rename); a snapshot with
//	                   sequence S captures everything in segments ≤ S
//
// Recovery loads the newest snapshot, then replays the WAL segments with a
// higher sequence, in order. A torn final record at the tail of the last
// segment — the expected residue of a crash mid-append — is tolerated and
// truncated away; a checksum mismatch anywhere else is corruption and is
// rejected with a typed error. Once a new snapshot lands, the segments it
// covers are deleted (log compaction).
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record ops. Every mutation of the served corpus becomes one record.
// Ops 2 (document delete), 5 and 6 (descriptor-database upsert and
// delete) are retired: no writer emits them, replay refuses them as
// corruption like any unknown op, and they are never reused.
const (
	// recPutDoc registers a document: [name, binary document].
	recPutDoc byte = 1
	// recPutBlk stores a block: [id, name, medium, descriptor, payload,
	// register-flag]. The id is redundant (it is the content address of
	// medium+payload) and is verified on replay. Name registrations
	// always travel as separate recName records — ordered by the name
	// shard, immune to snapshot compaction races — so the register flag
	// is always 0; replay refuses any other value.
	recPutBlk byte = 3
	// recDelBlk removes a block and its names: [id].
	recDelBlk byte = 4
	// recName points a registry name at a content address: [name, id].
	recName byte = 7
	// recChunk stages one unique content-defined chunk: [hash, bytes].
	// Snapshot-only: WAL appends and replication frames never carry it.
	// The hash is the chunk's raw SHA-256; a later recPutBlkC in the same
	// file assembles payloads from staged chunks. Replay checks only the
	// hash's length: the content address of every block that assembles
	// the chunk covers its bytes, so a wrong chunk fails that block.
	recChunk byte = 8
	// recPutBlkC stores a chunk-manifest block: [id, name, medium,
	// descriptor, manifest, register-flag] — recPutBlk with the payload
	// replaced by a concatenation of chunk hashes, each resolving to a
	// recChunk staged earlier in the same snapshot. Duplicate chunks are
	// written once per snapshot instead of once per block, so a
	// dup-heavy corpus snapshots near its unique size. Snapshot-only,
	// like recChunk.
	recPutBlkC byte = 9
	// recEditDoc applies an edit batch to a registered document: [name,
	// core.EncodeChangeRecords bytes]. WAL-only and, unlike every other
	// op, not idempotent: snapshots and replication write the document
	// whole instead, so a snapshot leaves none.
	recEditDoc byte = 10
)

// maxRecordBytes bounds one record's payload; larger lengths in a frame
// header mean corruption, and the bound keeps a corrupt length from
// allocating unbounded memory during replay.
const maxRecordBytes = 1 << 30

// frameHeaderSize is the fixed per-record framing overhead: a uint32
// little-endian payload length followed by a uint32 CRC-32C of the payload.
const frameHeaderSize = 8

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the servers run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a record that is present but wrong: a checksum
// mismatch, an impossible length, or fields that do not decode. Recovery
// refuses to proceed past it — silently dropping acknowledged mutations
// would be worse than failing loudly. errors.Is(err, ErrCorrupt) matches
// every *CorruptError.
var ErrCorrupt = errors.New("durable: corrupt record")

// CorruptError pinpoints a rejected record.
type CorruptError struct {
	// Path is the file holding the record.
	Path string
	// Offset is the byte offset of the record's frame header.
	Offset int64
	// Reason says what failed (checksum, length, field decode).
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: corrupt record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// errTorn marks an incomplete record at the end of a file: the length
// header or payload stops short. At the tail of the last WAL segment this
// is the expected residue of a crash mid-append and is tolerated; anywhere
// else it is corruption.
var errTorn = errors.New("durable: torn record")

// decodeRecord splits a record payload into its op and fields, appending
// into buf (pass nil, or a reused slice to avoid the per-record
// allocation). It never panics on arbitrary bytes — the fuzzed guarantee
// the replayer builds on.
func decodeRecord(payload []byte, buf [][]byte) (op byte, fields [][]byte, err error) {
	if len(payload) == 0 {
		return 0, nil, errors.New("empty record")
	}
	fields = buf[:0]
	op, rest := payload[0], payload[1:]
	for len(rest) > 0 {
		n, used := binary.Uvarint(rest)
		if used <= 0 {
			return 0, nil, errors.New("bad field length varint")
		}
		rest = rest[used:]
		if n > uint64(len(rest)) {
			return 0, nil, fmt.Errorf("field length %d exceeds remaining %d bytes", n, len(rest))
		}
		fields = append(fields, rest[:n:n])
		rest = rest[n:]
	}
	return op, fields, nil
}

// encodeFrame builds one framed record in a single allocation: the
// frame header, then the payload — the op byte followed by each field as
// a uvarint length prefix plus bytes. The append hot path runs under a
// shard lock, and a multi-megabyte payload must not be copied twice
// there.
func encodeFrame(op byte, fields ...[]byte) []byte {
	size := 1
	for _, f := range fields {
		size += binary.MaxVarintLen64 + len(f)
	}
	buf := make([]byte, frameHeaderSize, frameHeaderSize+size)
	buf = append(buf, op)
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return buf
}

// writeFrame writes the frame encodeFrame builds straight into w and
// returns its length: the CRC-32C runs over the op, the length prefixes
// and the fields where they stand, so a field is copied once, into w. A
// failed write stays in w, which refuses the rest; its Flush reports it.
func writeFrame(w *bufio.Writer, op byte, fields ...[]byte) int {
	hdr := [frameHeaderSize + 1]byte{frameHeaderSize: op}
	var prefix [binary.MaxVarintLen64]byte
	n, crc := 1, crc32.Update(0, crcTable, hdr[frameHeaderSize:])
	for _, f := range fields {
		k := binary.PutUvarint(prefix[:], uint64(len(f)))
		crc = crc32.Update(crc32.Update(crc, crcTable, prefix[:k]), crcTable, f)
		n += k + len(f)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	w.Write(hdr[:])
	for _, f := range fields {
		w.Write(prefix[:binary.PutUvarint(prefix[:], uint64(len(f)))])
		w.Write(f)
	}
	return frameHeaderSize + n
}

// frameLength reads the payload length a frame header declares. Zero,
// or anything past maxRecordBytes, is corruption: no writer frames an
// empty record, and the bound keeps a corrupt header from allocating.
func frameLength(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxRecordBytes {
		return 0, fmt.Errorf("impossible record length %d", n)
	}
	return int(n), nil
}

// checkFrame verifies a payload against the CRC-32C its frame header
// stores. No field of a record is read before its frame passes.
func checkFrame(hdr, payload []byte) error {
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return nil
}

// walkFrames reads an in-memory batch of framed records — a replication
// or resync batch — with the checks recovery applies to a file: each
// frame's length and checksum pass before its fields are decoded. fn
// receives each frame's bytes and its record, both aliasing data. A
// short or corrupt frame stops the walk with a *CorruptError.
func walkFrames(data []byte, fn func(frame []byte, r Record)) error {
	for off := 0; off < len(data); {
		if len(data)-off < frameHeaderSize {
			return streamCorrupt(off, "truncated frame header")
		}
		hdr := data[off : off+frameHeaderSize]
		length, err := frameLength(hdr)
		if err != nil {
			return streamCorrupt(off, err.Error())
		}
		if len(data)-off-frameHeaderSize < length {
			return streamCorrupt(off, "truncated record payload")
		}
		end := off + frameHeaderSize + length
		payload := data[off+frameHeaderSize : end]
		if err := checkFrame(hdr, payload); err != nil {
			return streamCorrupt(off, err.Error())
		}
		op, fields, err := decodeRecord(payload, nil)
		if err != nil {
			return streamCorrupt(off, err.Error())
		}
		fn(data[off:end], Record{Op: op, Fields: fields})
		off = end
	}
	return nil
}

func streamCorrupt(off int, reason string) error {
	return &CorruptError{Path: "(stream)", Offset: int64(off), Reason: reason}
}

// recordScanner iterates the framed records of one WAL segment or
// snapshot file.
type recordScanner struct {
	r    io.Reader
	path string
	// offset is the byte offset of the NEXT frame header; after a
	// successful next() it is the end of the returned record, so a torn
	// tail truncates the file back to the last good offset.
	offset int64
	// scratch is the reused payload buffer of records nothing keeps:
	// each next() overwrites the previous one, so consumers must finish
	// (or detach) such a record before asking for the next one.
	// Replaying a large corpus is GC bound without this.
	scratch []byte
}

func newRecordScanner(r io.Reader, path string) *recordScanner {
	return &recordScanner{r: r, path: path}
}

// keepsBytes reports whether a record of op carries bytes the state
// keeps as they stand: a block payload or a snapshot chunk.
func keepsBytes(op byte) bool { return op == recPutBlk || op == recChunk }

// next returns the next record payload. io.EOF means a clean end, errTorn
// an incomplete final record, and *CorruptError a record that is present
// but fails its checks. kept reports a payload read into a buffer of its
// own, which the caller may keep: a record of at most 1 MiB whose op
// carries bytes the state keeps (keepsBytes). Any other payload is
// overwritten by the next call.
func (s *recordScanner) next() (payload []byte, kept bool, err error) {
	start := s.offset
	var hdr [frameHeaderSize + 1]byte // the frame header, then the op
	_, err = io.ReadFull(s.r, hdr[:frameHeaderSize])
	if err == io.EOF {
		return nil, false, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		return nil, false, errTorn
	}
	if err != nil {
		return nil, false, err
	}
	length, err := frameLength(hdr[:frameHeaderSize])
	if err != nil {
		return nil, false, &CorruptError{Path: s.path, Offset: start, Reason: err.Error()}
	}
	torn := func(err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return errTorn
		}
		return err
	}
	// Read the payload in bounded steps: a corrupt length header must
	// not allocate its claimed size up front, only what is actually
	// present in the file. Sane lengths (≤ 1 MiB, the overwhelmingly
	// common case) read in one shot: a block payload or chunk straight
	// into the buffer the state keeps, anything else into the reused
	// scratch buffer — replay throughput is a headline, and copies and
	// GC churn here dominate it. The op byte, read first, decides which.
	const chunkSize = 1 << 20
	if length <= chunkSize {
		if _, err := io.ReadFull(s.r, hdr[frameHeaderSize:]); err != nil {
			return nil, false, torn(err)
		}
		if kept = keepsBytes(hdr[frameHeaderSize]); kept {
			payload = make([]byte, length)
		} else {
			if cap(s.scratch) < length {
				s.scratch = make([]byte, length)
			}
			payload = s.scratch[:length]
		}
		payload[0] = hdr[frameHeaderSize]
		if _, err := io.ReadFull(s.r, payload[1:]); err != nil {
			return nil, false, torn(err)
		}
	} else {
		payload = make([]byte, 0, chunkSize)
		for remaining := length; remaining > 0; {
			chunk := remaining
			if chunk > chunkSize {
				chunk = chunkSize
			}
			off := len(payload)
			payload = append(payload, make([]byte, chunk)...)
			n, err := io.ReadFull(s.r, payload[off:])
			payload = payload[:off+n]
			if err != nil {
				return nil, false, torn(err)
			}
			remaining -= chunk
		}
	}
	if err := checkFrame(hdr[:frameHeaderSize], payload); err != nil {
		return nil, false, &CorruptError{Path: s.path, Offset: start, Reason: err.Error()}
	}
	s.offset = start + frameHeaderSize + int64(length)
	return payload, kept, nil
}
