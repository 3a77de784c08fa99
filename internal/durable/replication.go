package durable

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/media"
)

// Log shipping: the WAL's framed records double as the cluster's
// replication stream. A primary frames each mutation once, appends it to
// its own log, and ships the identical bytes to every replica. Replica
// and recovery share one path from bytes to state: a shipped batch is
// read by the frame reader recovery uses (each frame's length and
// CRC-32C checked before any field is read), and AppendRecords verifies
// and applies each record with the State.verify and State.apply steps
// replay runs — so a replica's directory is byte-compatible with a
// primary's and either can recover the other's state. A rejoining node
// catches up the same way: ResyncChunk walks the live state in
// deterministic key order and re-frames it as the records a snapshot
// would hold.

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

// FrameRegisterName frames a registry name→content-address registration.
func FrameRegisterName(name, id string) []byte {
	return encodeFrame(recName, []byte(name), []byte(id))
}

// DecodeFrames splits a concatenation of framed records, verifying each
// frame's length header and CRC-32C before decoding it — the checks
// recovery applies to a file. Returned fields alias data. A short or
// corrupt frame fails the whole batch with an error matching ErrCorrupt.
func DecodeFrames(data []byte) ([]Record, error) {
	var recs []Record
	if err := walkFrames(data, func(_ []byte, r Record) { recs = append(recs, r) }); err != nil {
		return nil, err
	}
	return recs, nil
}

// FilterFrames re-frames a batch, keeping only the frames whose decoded
// record keep reports true. It reads the batch as DecodeFrames does, so
// a corrupt frame fails the batch before keep sees it. The kept frames
// are the original bytes, boundaries and checksums intact — the
// cluster's resync path uses this to drop records for keys a concurrent
// live replication already delivered, without re-encoding anything.
func FilterFrames(frames []byte, keep func(Record) bool) ([]byte, error) {
	var out []byte
	err := walkFrames(frames, func(frame []byte, r Record) {
		if keep(r) {
			out = append(out, frame...)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendFrames decodes a batch of framed records and appends it through
// AppendRecords; a corrupt frame fails the batch before anything is
// appended.
func (l *Log) AppendFrames(frames []byte) (docs map[string]*core.Document, err error) {
	recs, err := DecodeFrames(frames)
	if err != nil {
		return nil, err
	}
	return l.AppendRecords(recs)
}

// AppendRecords verifies a batch of decoded records, appends them to the
// WAL and applies each to the live state — the replica half of log
// shipping, through the verify and apply steps crash recovery runs. Only
// the four full-state ops replicate; a recEditDoc, which is not
// idempotent, is refused like any other op. The whole batch is
// verified (field shapes, decodability, content-address agreement)
// before anything is appended, so a bad batch appends nothing and can
// never brick the directory with a record recovery would reject; a
// rejected record's error matches ErrCorrupt. Records whose effect the
// state already holds are skipped — equal-bytes document re-puts, blocks
// already stored under their content address, name registrations
// already pointing at the same id — so a full-state resync replayed over
// a mostly-caught-up replica appends only the delta.
//
// The caller must NOT have attached this log as the store's mutation
// journal (media.Store.SetJournal): AppendRecords applies mutations
// directly and journals them itself, and a self-journaling store would
// record every record twice. Cluster nodes replicate explicitly and leave
// the journal detached.
//
// It returns the documents the batch registered, by name, as its verify
// step decoded them, so a serving registry can be refreshed without a
// second decode; the log keeps none of them.
func (l *Log) AppendRecords(recs []Record) (docs map[string]*core.Document, err error) {
	// Verification reads only the records, so it runs before the lock,
	// and every block address check is done before anything appends. A
	// failed check is an earlier record than any the loop stopped at.
	chk := newAddrChecker()
	muts := make([]mutation, len(recs))
	var bad int
	for i, r := range recs {
		if muts[i], err = l.st.verifyReplicated(r, chk, int64(i)); err != nil {
			bad = i
			break
		}
	}
	if pos, cerr := chk.wait(); cerr != nil {
		bad, err = int(pos), cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%w: replicated record %d: %v", ErrCorrupt, bad, err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.err != nil {
		return nil, l.err
	}
	docs = make(map[string]*core.Document)
	for i, m := range muts {
		if l.st.holds(m) {
			continue
		}
		err := l.appendLocked(recs[i].Op, recs[i].Fields...)
		if err == nil {
			err = l.st.apply(m)
		}
		if err != nil {
			return nil, err
		}
		if m.op == recPutDoc {
			docs[m.key] = m.doc
		}
	}
	return docs, nil
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
		defer l.mu.Unlock()
		return slices.Collect(maps.Keys(l.st.docs))
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
		cur := l.st.docs[key]
		var at docJournal
		if cur != nil {
			at = *cur
		}
		l.mu.Unlock()
		if cur == nil {
			return nil, nil
		}
		data, err := l.folded(key, cur, at)
		if err != nil {
			return nil, err
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
