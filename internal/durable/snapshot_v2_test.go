package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/transport"
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
		payload, _, err := sc.next()
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
	checkEqual(t, liveState(t, l), got)
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
	src = liveState(t, l)

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
	}, false, newAddrChecker(), 0)
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

// TestSnapshotCutsOnDemand: a log cuts a block on its first snapshot and
// remembers the cut after. A cold snapshot, a warm repeat of the same
// state, and the first snapshot of a fresh log over the recovered
// directory all come out the same deduped size and recover the same
// corpus.
func TestSnapshotCutsOnDemand(t *testing.T) {
	const nBlocks, blockSize = 12, 64 << 10
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	logical := dupHeavyCorpusBlocks(t, st, nBlocks, blockSize)
	snapshotSize := func(l *Log, label string) int64 {
		t.Helper()
		if err := l.Snapshot(); err != nil {
			t.Fatalf("%s snapshot: %v", label, err)
		}
		snap := newestSnapshot(t, dir)
		if ops := snapshotOps(t, snap); ops[recPutBlkC] != nBlocks || ops[recPutBlk] != 0 || ops[recChunk] == 0 {
			t.Fatalf("%s snapshot not in the deduped form (ops %v)", label, ops)
		}
		info, err := os.Stat(snap)
		if err != nil {
			t.Fatal(err)
		}
		// The bound TestSnapshotChunkDedupe uses.
		if info.Size() > logical/2 {
			t.Fatalf("%s snapshot %d bytes did not dedupe %d logical bytes", label, info.Size(), logical)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("Load after the %s snapshot: %v", label, err)
		}
		checkEqual(t, liveState(t, l), got)
		return info.Size()
	}
	cold := snapshotSize(l, "cold")
	if warm := snapshotSize(l, "warm"); warm != cold {
		t.Fatalf("warm snapshot is %d bytes, cold %d", warm, cold)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	defer l.Close()
	if fresh := snapshotSize(l, "recovered"); fresh != cold {
		t.Fatalf("recovered log's snapshot is %d bytes, cold %d", fresh, cold)
	}
}

// TestSnapshotSweepsDeletedBlocks: a block deleted between snapshots
// leaves the chunks it shared with a survivor in every later snapshot
// and takes the rest with it, and the dedupe counter counts a later
// block's chunks as shared only against blocks still stored.
func TestSnapshotSweepsDeletedBlocks(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	defer l.Close()
	st.Store.SetJournal(l)
	// The counter is read where an origin serves it: the log's
	// instruments and a server over the store share one registry.
	reg := metrics.NewRegistry()
	l.Instrument(reg)
	srv := transport.NewServer(transport.NewRegistry(st.Store))
	srv.Metrics = reg
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	saved := reg.Counter("cmif_bytes_saved_total", "", "reason", "dedupe")

	// a and b splice one base in different places; c carries a's splice
	// and one of its own, so it shares a's edited chunks, which b lacks.
	rng := rand.New(rand.NewSource(41))
	base := make([]byte, 192<<10)
	rng.Read(base)
	splice := func(p []byte, off int, seed int64) {
		rand.New(rand.NewSource(seed)).Read(p[off : off+128])
	}
	pa, pb := bytes.Clone(base), bytes.Clone(base)
	splice(pa, 40<<10, 1)
	splice(pb, 150<<10, 2)
	pc := bytes.Clone(pa)
	splice(pc, 100<<10, 3)
	a := media.NewBlock("a.vid", core.MediumVideo, pa, attr.List{})
	b := media.NewBlock("b.vid", core.MediumVideo, pb, attr.List{})
	c := media.NewBlock("c.vid", core.MediumVideo, pc, attr.List{})

	// sharedBytes is what a first cut of p adds to the counter when the
	// blocks remembered before it hold the chunks in held; it adds p's
	// chunks to held.
	sharedBytes := func(held map[ChunkHash]bool, p []byte) int64 {
		var n int64
		for _, chunk := range chunker.Split(p, chunker.Config{}) {
			h := chunker.Sum(chunk)
			if held[h] {
				n += int64(len(chunk))
			}
			held[h] = true
		}
		return n
	}
	setOf := func(payloads ...[]byte) map[ChunkHash]bool {
		set := make(map[ChunkHash]bool)
		for _, p := range payloads {
			for _, c := range chunker.Split(p, chunker.Config{}) {
				set[chunker.Sum(c)] = true
			}
		}
		return set
	}
	// snapshotChunks snapshots and returns the chunk hashes written.
	snapshotChunks := func() map[ChunkHash]bool {
		t.Helper()
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(newestSnapshot(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := DecodeFrames(data)
		if err != nil {
			t.Fatal(err)
		}
		written := make(map[ChunkHash]bool)
		for _, r := range recs {
			if r.Op == recChunk {
				written[ChunkHash(r.Fields[0])] = true
			}
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		checkEqual(t, liveState(t, l), got)
		return written
	}
	checkChunks := func(label string, got, want map[ChunkHash]bool) {
		t.Helper()
		if !maps.Equal(got, want) {
			t.Fatalf("%s: snapshot wrote %d chunks, want the %d of the stored blocks", label, len(got), len(want))
		}
	}

	st.Store.Put(a)
	st.Store.Put(b)
	want := sharedBytes(make(map[ChunkHash]bool), pa) // a's own repeats
	want += sharedBytes(setOf(pa), pb)
	checkChunks("both stored", snapshotChunks(), setOf(pa, pb))
	if got := saved.Value(); got != want || want == 0 {
		t.Fatalf("dedupe counter = %d after the first snapshot, want %d > 0", got, want)
	}

	st.Store.Delete(a.ID)
	checkChunks("a deleted", snapshotChunks(), setOf(pb))
	if got := saved.Value(); got != want {
		t.Fatalf("dedupe counter moved to %d on a snapshot that cut nothing, want %d", got, want)
	}

	st.Store.Put(c)
	add := sharedBytes(setOf(pb), pc)
	if sharedBytes(setOf(pa, pb), pc) == add {
		t.Fatal("c shares no chunk with a that b lacks; the test would prove nothing")
	}
	want += add
	checkChunks("c stored", snapshotChunks(), setOf(pb, pc))
	if got := saved.Value(); got != want {
		t.Fatalf("dedupe counter = %d after c's first snapshot, want %d: only b's chunks count", got, want)
	}
}

// TestWriteFrameMatchesEncodeFrame: the snapshot writer's frames are the
// bytes encodeFrame builds — for a record of no fields, empty and small
// fields, and fields whose lengths take every uvarint prefix width up to
// a payload larger than the writer's buffer, which bypasses it.
func TestWriteFrameMatchesEncodeFrame(t *testing.T) {
	big := make([]byte, 2<<20+1) // a 4-byte length prefix
	rand.New(rand.NewSource(3)).Read(big)
	cases := [][][]byte{
		nil,
		{{}},
		{[]byte("news"), {}},
		{[]byte("id"), []byte("name"), []byte("video"), []byte("<desc>"), big[:127], {0}},
		{big[:128], big[:16383], big[:16384]},
		{big[:2<<20-1], big},
	}
	for i, fields := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriterSize(&buf, 4096)
		n := writeFrame(w, recPutBlkC, fields...)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want := encodeFrame(recPutBlkC, fields...)
		if n != len(want) || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("case %d: writeFrame wrote %d bytes (returned %d), encodeFrame %d; equal %v",
				i, buf.Len(), n, len(want), bytes.Equal(buf.Bytes(), want))
		}
	}
}

// blockRecords counts the block records (recPutBlk, recPutBlkC) in the
// file at path by block id.
func blockRecords(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeFrames(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := make(map[string]int)
	for _, r := range recs {
		if r.Op == recPutBlk || r.Op == recPutBlkC {
			ids[string(r.Fields[0])]++
		}
	}
	return ids
}

// TestSnapshotLeavesTailPutsToTheTail: a block put after a snapshot rolls
// the segment, and before it walks the store, is journaled in the WAL
// tail; the snapshot leaves it out, so recovery reads and hashes it once,
// and still rebuilds it. The blocks stored before the roll are in the
// snapshot only.
func TestSnapshotLeavesTailPutsToTheTail(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	dupHeavyCorpusBlocks(t, st, 4, 64<<10)
	var before []string
	st.Store.Each(func(b *media.Block) bool {
		before = append(before, b.ID)
		return true
	})
	late := []*media.Block{
		media.CaptureText("late.txt", "put between the roll and the walk", "en"),
		media.CaptureAudio("late.aud", 2000, 8000, 330, 5), // chunked when snapshotted
	}
	l.afterRoll = func() {
		for _, b := range late {
			st.Store.Put(b)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	l.afterRoll = nil
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	inSnap := blockRecords(t, newestSnapshot(t, dir))
	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	inTail := make(map[string]int)
	for _, seq := range listing.walSeqs {
		for id, n := range blockRecords(t, filepath.Join(dir, walName(seq))) {
			inTail[id] += n
		}
	}
	for _, id := range before {
		if inSnap[id] != 1 || inTail[id] != 0 {
			t.Errorf("block %.12s stored before the roll: %d snapshot and %d tail records, want 1 and 0",
				id, inSnap[id], inTail[id])
		}
	}
	rec := mustLoad(t, dir)
	for _, b := range late {
		if inSnap[b.ID] != 0 || inTail[b.ID] != 1 {
			t.Errorf("%s put after the roll: %d snapshot and %d tail records, want 0 and 1",
				b.Name, inSnap[b.ID], inTail[b.ID])
		}
		if got, ok := rec.Store.Get(b.ID); !ok || !bytes.Equal(got.Payload, b.Payload) {
			t.Errorf("recovery did not rebuild %s", b.Name)
		}
	}
	if err := rec.Store.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
