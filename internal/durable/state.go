package durable

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/media"
)

// State is the recovered corpus: the block store and the registered
// documents. Open and Load rebuild one by replaying the newest snapshot
// plus the WAL tail. Once the log is attached as the store's journal,
// State stays the live corpus: the Log's document methods keep Docs in
// step with what they journal.
type State struct {
	Store *media.Store
	Docs  map[string]*core.Document

	// descMemo caches descriptor parses by their text during one
	// recovery: a corpus of same-shaped blocks repeats a handful of
	// descriptor texts thousands of times, and re-parsing each one
	// would dominate recovery. Consumers clone before mutating, so
	// sharing the parsed list is safe. Released with replayChunks;
	// nil afterwards, so replicated records parse without it.
	descMemo map[string]attr.List

	// replayChunks stages recChunk records (snapshot-only) so the
	// recPutBlkC records that follow can reassemble their payloads.
	// Populated lazily during snapshot replay, released by recovery once
	// all files are replayed — it holds one copy of each unique chunk,
	// transiently doubling their footprint, and must not outlive replay.
	replayChunks map[ChunkHash][]byte
}

// ChunkHash mirrors media.ChunkHash for the snapshot chunk records.
type ChunkHash = media.ChunkHash

func newState() *State {
	return &State{
		Store:    media.NewStore(),
		Docs:     make(map[string]*core.Document),
		descMemo: make(map[string]attr.List),
	}
}

// parseDesc is media.ParseDescriptor with the replay memo, while there
// is one, in front.
func (st *State) parseDesc(data []byte) (attr.List, error) {
	if st.descMemo == nil {
		return media.ParseDescriptor(data)
	}
	if cached, ok := st.descMemo[string(data)]; ok {
		return cached, nil
	}
	desc, err := media.ParseDescriptor(data)
	if err != nil {
		return attr.List{}, err
	}
	st.descMemo[string(data)] = desc
	return desc, nil
}

// apply replays one decoded record into the state. Errors wrap the
// offending op; arbitrary bytes must never panic, only fail (the fuzzed
// guarantee).
func (st *State) apply(op byte, fields [][]byte) error {
	want := func(n int) error {
		if len(fields) != n {
			return fmt.Errorf("op %d: want %d fields, got %d", op, n, len(fields))
		}
		return nil
	}
	switch op {
	case recPutDoc:
		if err := want(2); err != nil {
			return err
		}
		d, err := codec.DecodeBinary(fields[1])
		if err != nil {
			return fmt.Errorf("putdoc %q: %w", fields[0], err)
		}
		st.Docs[string(fields[0])] = d
	case recEditDoc:
		if err := want(2); err != nil {
			return err
		}
		d, ok := st.Docs[string(fields[0])]
		if !ok {
			return fmt.Errorf("editdoc %q: no such document", fields[0])
		}
		recs, err := core.DecodeChangeRecords(fields[1])
		if err == nil {
			err = edit.Apply(d, recs) // in place: replay owns its documents
		}
		if err != nil {
			return fmt.Errorf("editdoc %q: %w", fields[0], err)
		}
	case recDelDoc: // retired, but replay still honours it
		if err := want(1); err != nil {
			return err
		}
		delete(st.Docs, string(fields[0]))
	case recPutBlk:
		if err := want(6); err != nil {
			return err
		}
		if len(fields[5]) != 1 {
			return fmt.Errorf("putblk: bad register flag")
		}
		b, err := st.blockFromRecord(fields)
		if err != nil {
			return fmt.Errorf("putblk %q: %w", fields[1], err)
		}
		if b.ID != string(fields[0]) {
			return fmt.Errorf("putblk %q: recorded content address %.12s does not match payload (%.12s)",
				fields[1], fields[0], b.ID)
		}
		st.Store.PutReplayed(b, fields[5][0] == 1)
	case recDelBlk:
		if err := want(1); err != nil {
			return err
		}
		st.Store.Delete(string(fields[0]))
	case recPutDesc: // retired: checked, then dropped
		return want(2)
	case recDelDesc: // retired: checked, then dropped
		return want(1)
	case recChunk:
		if err := want(2); err != nil {
			return err
		}
		if len(fields[0]) != chunker.HashSize {
			return fmt.Errorf("chunk: bad hash length %d", len(fields[0]))
		}
		var h ChunkHash
		copy(h[:], fields[0])
		if chunker.Sum(fields[1]) != h {
			return fmt.Errorf("chunk %.12x: bytes do not match recorded hash", fields[0])
		}
		if st.replayChunks == nil {
			st.replayChunks = make(map[ChunkHash][]byte)
		}
		// Detach from the scanner's scratch buffer; the staged copy is
		// shared by every block manifest that references it.
		st.replayChunks[h] = append(make([]byte, 0, len(fields[1])), fields[1]...)
	case recPutBlkC:
		if err := want(6); err != nil {
			return err
		}
		if len(fields[5]) != 1 {
			return fmt.Errorf("putblkc: bad register flag")
		}
		payload, err := st.assembleChunks(fields[4])
		if err != nil {
			return fmt.Errorf("putblkc %q: %w", fields[1], err)
		}
		b, err := st.blockFromParts(fields[1], fields[2], fields[3], payload)
		if err != nil {
			return fmt.Errorf("putblkc %q: %w", fields[1], err)
		}
		if b.ID != string(fields[0]) {
			return fmt.Errorf("putblkc %q: recorded content address %.12s does not match payload (%.12s)",
				fields[1], fields[0], b.ID)
		}
		st.Store.PutReplayed(b, fields[5][0] == 1)
	case recName:
		if err := want(2); err != nil {
			return err
		}
		// Best-effort: a registration whose block a later-journaled (but
		// racing) delete already removed skips silently — the live store
		// rolled the same registration back, so skipping converges on
		// the pre-crash state.
		st.Store.RegisterName(string(fields[0]), string(fields[1]))
	default:
		return fmt.Errorf("unknown record op %d", op)
	}
	return nil
}

// blockFromRecord rebuilds a block from recPutBlk fields, recomputing its
// content address from medium and payload. The payload detaches from the
// scanner's scratch buffer exactly once.
func (st *State) blockFromRecord(fields [][]byte) (*media.Block, error) {
	payload := append(make([]byte, 0, len(fields[4])), fields[4]...)
	return st.blockFromParts(fields[1], fields[2], fields[3], payload)
}

// blockFromParts assembles a block from replayed parts, taking ownership
// of payload (callers pass a detached or freshly assembled slice).
func (st *State) blockFromParts(name, mediumText, descText, payload []byte) (*media.Block, error) {
	medium, err := core.ParseMedium(string(mediumText))
	if err != nil {
		return nil, err
	}
	desc, err := st.parseDesc(descText)
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	if n, ok := desc.GetInt(media.DescBytes); ok && n != int64(len(payload)) {
		return nil, fmt.Errorf("descriptor bytes attribute %d disagrees with %d-byte payload",
			n, len(payload))
	}
	// Assembled by hand rather than through NewBlock: the journaled
	// descriptor already carries the bytes and format attributes NewBlock
	// would re-derive, the payload is copied exactly once, and the
	// memoized descriptor is shared — immutably — across every block that
	// repeats its text. Recovery cost per block is one hash, one copy.
	return &media.Block{
		ID:         media.ContentAddress(medium, payload),
		Name:       string(name),
		Medium:     medium,
		Payload:    payload,
		Descriptor: desc,
	}, nil
}

// assembleChunks rebuilds a recPutBlkC payload from its manifest — a
// concatenation of fixed-size chunk hashes, each staged by an earlier
// recChunk in the same snapshot. Every chunk's hash was verified when it
// was staged and the caller verifies the whole payload's content
// address, so assembly is pure concatenation.
func (st *State) assembleChunks(manifest []byte) ([]byte, error) {
	if len(manifest) == 0 || len(manifest)%chunker.HashSize != 0 {
		return nil, fmt.Errorf("manifest length %d not a multiple of hash size", len(manifest))
	}
	total := 0
	for off := 0; off < len(manifest); off += chunker.HashSize {
		var h ChunkHash
		copy(h[:], manifest[off:])
		data, ok := st.replayChunks[h]
		if !ok {
			return nil, fmt.Errorf("manifest references unstaged chunk %.12x", h[:])
		}
		total += len(data)
		if total > maxRecordBytes {
			return nil, fmt.Errorf("assembled payload exceeds %d bytes", maxRecordBytes)
		}
	}
	payload := make([]byte, 0, total)
	for off := 0; off < len(manifest); off += chunker.HashSize {
		var h ChunkHash
		copy(h[:], manifest[off:])
		payload = append(payload, st.replayChunks[h]...)
	}
	return payload, nil
}

// releaseReplay drops the replay-only tables once replay is done: the
// assembled payloads own their bytes and the blocks their descriptors,
// and the staging copies and memo entries would otherwise linger for
// the process lifetime.
func (st *State) releaseReplay() {
	st.replayChunks = nil
	st.descMemo = nil
}
