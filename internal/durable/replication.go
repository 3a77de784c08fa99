package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"

	"repro/internal/codec"
	"repro/internal/media"
)

// Log shipping: the WAL's framed records double as the cluster's
// replication stream. A primary frames each mutation once, appends it to
// its own log, and ships the identical bytes to every replica; the
// replica verifies and appends them through AppendFrames — replaying
// exactly what crash recovery replays, so a replica's directory is
// byte-compatible with a primary's and either can recover the other's
// state. A rejoining node catches up the same way: ResyncChunk walks the
// live state in deterministic key order and re-frames it as the records
// a snapshot would hold.

// Exported record-op aliases for replication consumers (the cluster
// layer routes records by key, and the key is Fields[0] for every op).
const (
	RecPutDoc = recPutDoc
	RecPutBlk = recPutBlk
	RecDelBlk = recDelBlk
	RecName   = recName
)

// Record is one decoded WAL record: the op byte plus its fields. Fields
// alias the buffer they were decoded from; detach before retaining.
type Record struct {
	Op     byte
	Fields [][]byte
}

// FramePutDoc frames a document registration. docBinary is the
// codec.EncodeBinary form of the document.
func FramePutDoc(name string, docBinary []byte) []byte {
	return encodeFrame(recPutDoc, []byte(name), docBinary)
}

// FramePutBlock frames a detached block put (register flag 0 — name
// registrations travel as separate FrameRegisterName records, exactly as
// the journal writes them).
func FramePutBlock(b *media.Block) ([]byte, error) {
	desc, err := b.DescriptorText()
	if err != nil {
		return nil, fmt.Errorf("durable: block %q descriptor: %w", b.Name, err)
	}
	return encodeFrame(recPutBlk,
		[]byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, b.Payload, []byte{0}), nil
}

// FrameDelBlock frames a block removal.
func FrameDelBlock(id string) []byte {
	return encodeFrame(recDelBlk, []byte(id))
}

// FrameRegisterName frames a registry name→content-address registration.
func FrameRegisterName(name, id string) []byte {
	return encodeFrame(recName, []byte(name), []byte(id))
}

// DecodeFrames splits a concatenation of framed records, verifying each
// frame's length header and CRC-32C — the same checks recovery applies.
// Returned fields alias data. A short or corrupt frame fails the whole
// batch with an error matching ErrCorrupt.
func DecodeFrames(data []byte) ([]Record, error) {
	var recs []Record
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderSize {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: "truncated frame header"}
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		if length == 0 || length > maxRecordBytes {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: fmt.Sprintf("impossible record length %d", length)}
		}
		if uint64(len(data)-off-frameHeaderSize) < uint64(length) {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: "truncated record payload"}
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(length)]
		if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(data[off+4:off+8]); got != want {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
		}
		op, fields, err := decodeRecord(payload, nil)
		if err != nil {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: err.Error()}
		}
		recs = append(recs, Record{Op: op, Fields: fields})
		off += frameHeaderSize + int(length)
	}
	return recs, nil
}

// FilterFrames re-frames a batch, keeping only the frames whose decoded
// record keep reports true. The kept frames are the original bytes,
// boundaries and checksums intact — the cluster's resync path uses this
// to drop records for keys a concurrent live replication already
// delivered, without re-encoding anything.
func FilterFrames(frames []byte, keep func(Record) bool) ([]byte, error) {
	var out []byte
	off := 0
	for off < len(frames) {
		if len(frames)-off < frameHeaderSize {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: "truncated frame header"}
		}
		length := int(binary.LittleEndian.Uint32(frames[off : off+4]))
		end := off + frameHeaderSize + length
		if length == 0 || length > maxRecordBytes || end > len(frames) {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: "truncated or oversized record"}
		}
		payload := frames[off+frameHeaderSize : end]
		op, fields, err := decodeRecord(payload, nil)
		if err != nil {
			return nil, &CorruptError{Path: "(stream)", Offset: int64(off),
				Reason: err.Error()}
		}
		if keep(Record{Op: op, Fields: fields}) {
			out = append(out, frames[off:end]...)
		}
		off = end
	}
	return out, nil
}

// AppendFrames verifies a batch of framed records, appends them to the
// WAL and applies each to the live state — the replica half of log
// shipping. The whole batch is validated (checksums, field shapes,
// decodability, content-address agreement) before anything is appended,
// so a bad batch can never brick the directory with a record recovery
// would reject. Records whose effect the state already holds are skipped
// — equal-bytes document re-puts, blocks already stored under their
// content address, name registrations already pointing at the same id —
// so a full-state resync replayed over a mostly-caught-up replica
// appends only the delta. A recEditDoc, which is not idempotent, and the
// retired ops are refused as unknown.
//
// The caller must NOT have attached this log as the store's mutation
// journal (media.Store.SetJournal): AppendFrames applies mutations
// directly and journals them itself, and a self-journaling store would
// record every record twice. Cluster nodes replicate explicitly and leave
// the journal detached.
//
// It returns the names of documents the batch registered (putDocs), so a
// serving registry can be refreshed.
func (l *Log) AppendFrames(frames []byte) (putDocs []string, err error) {
	recs, err := DecodeFrames(frames)
	if err != nil {
		return nil, err
	}

	type planned struct {
		rec   Record
		apply func()
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}

	plan := make([]planned, 0, len(recs))
	want := func(r Record, n int) error {
		if len(r.Fields) != n {
			return fmt.Errorf("durable: replicated op %d: want %d fields, got %d", r.Op, n, len(r.Fields))
		}
		return nil
	}
	for _, r := range recs {
		r := r
		switch r.Op {
		case recPutDoc:
			if err = want(r, 2); err != nil {
				break
			}
			name := string(r.Fields[0])
			if prev, ok := l.docs[name]; ok && bytes.Equal(prev, r.Fields[1]) {
				continue
			}
			doc, derr := codec.DecodeBinary(r.Fields[1])
			if derr != nil {
				err = fmt.Errorf("durable: replicated document %q: %w", name, derr)
				break
			}
			data := append([]byte(nil), r.Fields[1]...)
			plan = append(plan, planned{r, func() {
				l.docs[name] = data
				l.st.Docs[name] = doc
				putDocs = append(putDocs, name)
			}})
		case recPutBlk:
			if err = want(r, 6); err != nil {
				break
			}
			if len(r.Fields[5]) != 1 {
				err = fmt.Errorf("durable: replicated putblk: bad register flag")
				break
			}
			b, berr := l.st.blockFromRecord(r.Fields)
			if berr != nil {
				err = fmt.Errorf("durable: replicated putblk %q: %w", r.Fields[1], berr)
				break
			}
			if b.ID != string(r.Fields[0]) {
				err = fmt.Errorf("durable: replicated putblk %q: content address %.12s does not match payload",
					r.Fields[1], r.Fields[0])
				break
			}
			if _, ok := l.st.Store.Get(b.ID); ok {
				continue
			}
			register := r.Fields[5][0] == 1
			plan = append(plan, planned{r, func() { l.st.Store.PutReplayed(b, register) }})
		case recDelBlk:
			if err = want(r, 1); err != nil {
				break
			}
			id := string(r.Fields[0])
			if _, ok := l.st.Store.Get(id); !ok {
				continue
			}
			plan = append(plan, planned{r, func() { l.st.Store.Delete(id) }})
		case recName:
			if err = want(r, 2); err != nil {
				break
			}
			name, id := string(r.Fields[0]), string(r.Fields[1])
			if cur, ok := l.st.Store.Resolve(name); ok && cur == id {
				continue
			}
			plan = append(plan, planned{r, func() { l.st.Store.RegisterName(name, id) }})
		default:
			err = fmt.Errorf("durable: replicated record: unknown op %d", r.Op)
		}
		if err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}

	snapDue := false
	for _, p := range plan {
		due, aerr := l.appendLocked(p.rec.Op, p.rec.Fields...)
		if aerr != nil {
			l.mu.Unlock()
			return nil, aerr
		}
		snapDue = snapDue || due
		p.apply()
	}
	l.mu.Unlock()
	if snapDue {
		l.snapshotAsync()
	}
	return putDocs, nil
}

// Resync cursor phases, walked in snapshot order.
const (
	resyncDocs   = "docs"
	resyncBlocks = "blocks"
	resyncNames  = "names"
)

var resyncPhases = []string{resyncDocs, resyncBlocks, resyncNames}

// ResyncChunk serializes a slice of the live state as framed records,
// resuming from cursor ("" starts from the beginning). It walks
// documents, blocks and name registrations in sorted key order — the
// cursor is "phase/lastKey", so resumption is keyed, not positional, and
// concurrent churn can only re-send a key (harmless: AppendFrames
// dedupes), never skip one that existed when the walk started. The chunk stops once maxBytes is exceeded; next == "" means
// the walk is complete. This is the pull half of a rejoining replica's
// catch-up: the records are exactly what a snapshot of the source would
// hold, so the target replays them like crash recovery.
func (l *Log) ResyncChunk(cursor string, maxBytes int) (frames []byte, next string, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	phaseIdx, lastKey := 0, ""
	if cursor != "" {
		phase, key, ok := strings.Cut(cursor, "/")
		phaseIdx, lastKey = slices.Index(resyncPhases, phase), key
		if !ok || phaseIdx < 0 {
			return nil, "", fmt.Errorf("durable: bad resync cursor %q", cursor)
		}
	}

	var buf bytes.Buffer
	for ; phaseIdx < len(resyncPhases); phaseIdx++ {
		phase := resyncPhases[phaseIdx]
		keys := l.resyncKeys(phase)
		sort.Strings(keys)
		for _, key := range keys {
			if key <= lastKey {
				continue
			}
			frame, ferr := l.resyncFrame(phase, key)
			if ferr != nil {
				return nil, "", ferr
			}
			buf.Write(frame)
			lastKey = key
			if buf.Len() >= maxBytes {
				return buf.Bytes(), phase + "/" + lastKey, nil
			}
		}
		lastKey = ""
	}
	return buf.Bytes(), "", nil
}

// resyncKeys lists the current keys of one resync phase.
func (l *Log) resyncKeys(phase string) []string {
	switch phase {
	case resyncDocs:
		l.mu.Lock()
		keys := make([]string, 0, len(l.docs))
		for name := range l.docs {
			keys = append(keys, name)
		}
		l.mu.Unlock()
		return keys
	case resyncBlocks:
		var ids []string
		l.st.Store.Each(func(b *media.Block) bool {
			ids = append(ids, b.ID)
			return true
		})
		return ids
	case resyncNames:
		return l.st.Store.Names()
	}
	return nil
}

// resyncFrame frames the current value of one key; nil (no error) if the
// key vanished since it was listed.
func (l *Log) resyncFrame(phase, key string) ([]byte, error) {
	switch phase {
	case resyncDocs:
		l.mu.Lock()
		data, ok := l.docs[key]
		d := l.st.Docs[key]
		l.mu.Unlock()
		if !ok {
			return nil, nil
		}
		if data == nil { // stale: encode the held, immutable document
			var err error
			if data, err = codec.EncodeBinary(d); err != nil {
				return nil, fmt.Errorf("durable: resync document %q: %w", key, err)
			}
		}
		return FramePutDoc(key, data), nil
	case resyncBlocks:
		b, ok := l.st.Store.Get(key)
		if !ok {
			return nil, nil
		}
		return FramePutBlock(b)
	case resyncNames:
		id, ok := l.st.Store.Resolve(key)
		if !ok {
			return nil, nil
		}
		return FrameRegisterName(key, id), nil
	}
	return nil, fmt.Errorf("durable: unknown resync phase %q", phase)
}
