package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
)

// dupHeavyCorpusBlocks stores nBlocks near-duplicate video blocks: one
// shared base payload with a small per-block splice, so consecutive
// blocks share almost every content-defined chunk. Returns the sum of
// payload sizes.
func dupHeavyCorpusBlocks(t *testing.T, st *State, nBlocks, blockSize int) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	base := make([]byte, blockSize)
	rng.Read(base)
	var logical int64
	for i := 0; i < nBlocks; i++ {
		payload := append([]byte(nil), base...)
		// A 128-byte splice at a block-specific offset: dedupe must keep
		// the untouched chunks shared and isolate the edit.
		off := (i * 8191) % (blockSize - 128)
		rng.Read(payload[off : off+128])
		b := media.NewBlock(fmt.Sprintf("clip-%02d.vid", i), core.MediumVideo, payload, attr.List{})
		st.Store.Put(b)
		logical += int64(len(payload))
	}
	return logical
}

// snapshotOps scans a snapshot file and counts records by op.
func snapshotOps(t *testing.T, path string) map[byte]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := newRecordScanner(bufio.NewReaderSize(f, 1<<20), path)
	ops := make(map[byte]int)
	for {
		payload, err := sc.next()
		if err == io.EOF {
			return ops
		}
		if err != nil {
			t.Fatalf("scanning %s: %v", path, err)
		}
		op, _, derr := decodeRecord(payload, nil)
		if derr != nil {
			t.Fatalf("decoding record in %s: %v", path, derr)
		}
		ops[op]++
	}
}

// newestSnapshot returns the path of the highest-sequence snapshot.
func newestSnapshot(t *testing.T, dir string) string {
	t.Helper()
	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.snapSeqs) == 0 {
		t.Fatalf("no snapshot in %s", dir)
	}
	return filepath.Join(dir, snapName(listing.snapSeqs[len(listing.snapSeqs)-1]))
}

// TestSnapshotChunkDedupe: a dup-heavy corpus snapshots near its unique
// size — unique chunks once (recChunk), blocks as manifests (recPutBlkC)
// — and recovery rebuilds the identical corpus from that form.
func TestSnapshotChunkDedupe(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	const nBlocks, blockSize = 12, 128 << 10
	logical := dupHeavyCorpusBlocks(t, st, nBlocks, blockSize)
	populate(t, l, st) // mix in small blocks, docs, descriptors
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snap := newestSnapshot(t, dir)
	ops := snapshotOps(t, snap)
	if ops[recPutBlkC] < nBlocks {
		t.Fatalf("want >= %d recPutBlkC records, got %d (ops %v)", nBlocks, ops[recPutBlkC], ops)
	}
	if ops[recChunk] == 0 {
		t.Fatalf("no recChunk records in snapshot (ops %v)", ops)
	}
	if ops[recPutBlk] == 0 {
		t.Fatalf("small blocks should stay plain recPutBlk (ops %v)", ops)
	}
	info, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	// 12 near-duplicates of one 128 KiB base: logical is ~1.5 MiB, unique
	// is ~one base plus the splices. Anything under half logical proves
	// the chunks deduped; in practice it lands near 1/12th.
	if info.Size() > logical/2 {
		t.Fatalf("snapshot %d bytes did not dedupe %d logical bytes", info.Size(), logical)
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	checkEqual(t, st, got)
	if got.replayChunks != nil {
		t.Fatal("replay chunk staging not released after recovery")
	}
}

// writeLegacySnapshot writes a pre-chunking (v1) snapshot: every block as
// a plain recPutBlk, exactly what the old writer emitted. The upgrade
// test uses it to prove old directories still load.
func writeLegacySnapshot(t *testing.T, dir string, seq uint64, st *State, docs map[string][]byte) {
	t.Helper()
	var buf bytes.Buffer
	write := func(op byte, fields ...[]byte) {
		buf.Write(encodeFrame(op, fields...))
	}
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		write(recPutDoc, []byte(name), docs[name])
	}
	var werr error
	st.Store.Each(func(b *media.Block) bool {
		desc, err := media.EncodeDescriptor(b.Descriptor)
		if err != nil {
			werr = err
			return false
		}
		write(recPutBlk, []byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, b.Payload, []byte{0})
		return true
	})
	if werr != nil {
		t.Fatal(werr)
	}
	for _, name := range st.Store.Names() {
		if id, ok := st.Store.Resolve(name); ok {
			write(recName, []byte(name), []byte(id))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(seq)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFormatUpgrade: an old-format snapshot (plain recPutBlk
// only) recovers, the recovered log re-snapshots in the chunked format,
// and a second recovery serves byte-identical state — the full upgrade
// path a deploy rides through.
func TestSnapshotFormatUpgrade(t *testing.T) {
	srcDir := t.TempDir()
	l, src := mustOpen(t, srcDir, Options{Sync: SyncNever})
	dupHeavyCorpusBlocks(t, src, 8, 64<<10)
	populate(t, l, src)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Lay down an old-format directory: one legacy snapshot, no WAL.
	oldDir := t.TempDir()
	docs := make(map[string][]byte)
	for name, d := range src.Docs {
		data, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = data
	}
	writeLegacySnapshot(t, oldDir, 1, src, docs)

	ops := snapshotOps(t, newestSnapshot(t, oldDir))
	if ops[recPutBlkC] != 0 || ops[recChunk] != 0 {
		t.Fatalf("legacy snapshot must not contain chunk records (ops %v)", ops)
	}

	// Old snapshot loads under the new code.
	l2, upgraded := mustOpen(t, oldDir, Options{Sync: SyncNever})
	checkEqual(t, src, upgraded)

	// Re-snapshot: the recovered store re-indexed its chunks, so the new
	// snapshot comes out in the deduped format.
	if err := l2.Snapshot(); err != nil {
		t.Fatalf("re-snapshot after upgrade: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	ops = snapshotOps(t, newestSnapshot(t, oldDir))
	if ops[recPutBlkC] == 0 || ops[recChunk] == 0 {
		t.Fatalf("re-snapshot still in legacy format (ops %v)", ops)
	}

	// Second recovery, from the chunked snapshot: byte-equal serving.
	final, err := Load(oldDir)
	if err != nil {
		t.Fatalf("Load after upgrade: %v", err)
	}
	checkEqual(t, src, final)
	src.Store.Each(func(b *media.Block) bool {
		g, ok := final.Store.Get(b.ID)
		if !ok || !bytes.Equal(g.Payload, b.Payload) {
			t.Fatalf("block %s not byte-equal after upgrade cycle", b.Name)
		}
		return true
	})
}

// TestSnapshotChunkCorruptionRejected: a recPutBlkC whose manifest
// references a chunk the snapshot never staged is corruption, not a
// silent skip.
func TestSnapshotChunkCorruptionRejected(t *testing.T) {
	st := newState()
	var h ChunkHash
	for i := range h {
		h[i] = byte(i)
	}
	_, err := st.verify(recPutBlkC, [][]byte{
		[]byte("someid"), []byte("name"), []byte("text"), []byte("<ext>"), h[:], {0},
	}, newAddrChecker(), 0)
	if err == nil {
		t.Fatal("recPutBlkC with unstaged chunk accepted")
	}
}

// TestSnapshotWrongChunkFailsItsFirstBlock: replay stages a chunk without
// hashing it, so a staged chunk whose bytes do not match its recorded
// hash fails recovery at the first recPutBlkC that assembles it — that
// block's content address covers every chunk byte.
func TestSnapshotWrongChunkFailsItsFirstBlock(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	dupHeavyCorpusBlocks(t, st, 4, 64<<10)
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := newestSnapshot(t, dir)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeFrames(data)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the snapshot with the first staged chunk's bytes changed
	// under its hash, and note where the first block that uses it starts.
	var out bytes.Buffer
	var victim []byte
	want := int64(-1)
	for _, r := range recs {
		switch {
		case r.Op == recChunk && victim == nil:
			victim = r.Fields[0]
			r.Fields[1][len(r.Fields[1])/2] ^= 0x01
		case r.Op == recPutBlkC && want < 0 && victim != nil:
			for off := 0; off < len(r.Fields[4]); off += len(victim) {
				if bytes.Equal(r.Fields[4][off:off+len(victim)], victim) {
					want = int64(out.Len())
				}
			}
		}
		out.Write(encodeFrame(r.Op, r.Fields...))
	}
	if want < 0 {
		t.Fatal("no recPutBlkC assembles the first staged chunk")
	}
	if err := os.WriteFile(snap, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Load(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Load of a snapshot with a wrong chunk: %v, want a *CorruptError", err)
	}
	if ce.Path != snap || ce.Offset != want || !strings.Contains(ce.Reason, "recorded content address") {
		t.Fatalf("corruption reported in %s at %d (%s), want the block at %d in %s",
			ce.Path, ce.Offset, ce.Reason, want, snap)
	}
}

// TestSnapshotCutsOnDemand: the store cuts a block on the first Manifest
// request, and a snapshot is such a request. A state nobody ever asked
// and one asked for every manifest beforehand snapshot to the same
// deduped size and recover to the same corpus.
func TestSnapshotCutsOnDemand(t *testing.T) {
	const nBlocks, blockSize = 12, 64 << 10
	snapshotOf := func(ask bool) (*State, string, int64) {
		dir := t.TempDir()
		l, st := mustOpen(t, dir, Options{Sync: SyncNever})
		logical := dupHeavyCorpusBlocks(t, st, nBlocks, blockSize)
		if ask {
			st.Store.Each(func(b *media.Block) bool {
				if _, ok := st.Store.Manifest(b.ID); !ok {
					t.Fatalf("block %s has no manifest", b.Name)
				}
				return true
			})
		}
		if err := l.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		snap := newestSnapshot(t, dir)
		if ops := snapshotOps(t, snap); ops[recPutBlkC] != nBlocks || ops[recPutBlk] != 0 || ops[recChunk] == 0 {
			t.Fatalf("ask=%v: snapshot not in the deduped form (ops %v)", ask, ops)
		}
		info, err := os.Stat(snap)
		if err != nil {
			t.Fatal(err)
		}
		// The bound TestSnapshotChunkDedupe uses.
		if info.Size() > logical/2 {
			t.Fatalf("ask=%v: snapshot %d bytes did not dedupe %d logical bytes", ask, info.Size(), logical)
		}
		return st, dir, info.Size()
	}
	asked, askedDir, askedSize := snapshotOf(true)
	_, unaskedDir, unaskedSize := snapshotOf(false)
	if askedSize != unaskedSize {
		t.Fatalf("snapshot of the asked state is %d bytes, of the unasked state %d", askedSize, unaskedSize)
	}
	for _, dir := range []string{askedDir, unaskedDir} {
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		checkEqual(t, asked, got)
		got.Store.Each(func(b *media.Block) bool {
			if _, ok := got.Store.Manifest(b.ID); !ok {
				t.Fatalf("recovered block %s answers no manifest", b.Name)
			}
			return true
		})
	}
}
