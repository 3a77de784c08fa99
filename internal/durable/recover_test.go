package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/media"
)

// putBlkFrame frames b as a recPutBlk; flip changes one payload byte
// after the address was taken, so the record's address is wrong.
func putBlkFrame(t testing.TB, b *media.Block, flip bool) []byte {
	t.Helper()
	desc, err := b.DescriptorText()
	if err != nil {
		t.Fatal(err)
	}
	payload := slices.Clone(b.Payload)
	if flip {
		payload[len(payload)/2] ^= 0x01
	}
	return encodeFrame(recPutBlk, []byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, payload, []byte{0})
}

// rawFrame frames payload as it stands: a valid length and checksum
// around a record that need not decode.
func rawFrame(payload []byte) []byte {
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// orderingBlock is block i of the ordering tests, each with its own
// content: a large one at the first bad position, so its check is still
// hashing when the later, small bad block's check has already failed.
func orderingBlock(i int, large bool) *media.Block {
	ms := int64(50)
	if large {
		ms = 60_000
	}
	return media.CaptureAudio(fmt.Sprintf("voice-%03d.aud", i), ms, 8000, 200+int64(i)*7, uint64(i+1))
}

// badAddressWAL frames n block puts whose records k and k+3 carry wrong
// addresses, and returns the bytes with record k's start offset.
func badAddressWAL(t *testing.T, n, k int) ([]byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	var at int64
	for i := 0; i < n; i++ {
		if i == k {
			at = int64(buf.Len())
		}
		buf.Write(putBlkFrame(t, orderingBlock(i, i == k), i == k || i == k+3))
	}
	return buf.Bytes(), at
}

// wantCorruptAt asserts err is a *CorruptError naming path at offset at
// for a wrong content address.
func wantCorruptAt(t *testing.T, err error, path string, at int64) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want a *CorruptError", err)
	}
	if ce.Path != path || ce.Offset != at || !strings.Contains(ce.Reason, "recorded content address") {
		t.Fatalf("corruption reported in %s at %d (%s), want the bad address at %d in %s",
			ce.Path, ce.Offset, ce.Reason, at, path)
	}
}

// TestBadBlockAddressFailsAtItsRecord: block addresses are checked beside
// the replay loop, and the earliest bad record still wins — whatever
// order the checks finish in, and when the loop itself stops later at an
// undecodable record or a torn tail. A bad address is never tolerated as
// a torn tail, so Open leaves the file as it found it.
func TestBadBlockAddressFailsAtItsRecord(t *testing.T) {
	const n, k = 24, 9
	wal, at := badAddressWAL(t, n, k)
	cases := []struct {
		name string
		tail []byte
	}{
		{"clean end", nil},
		{"undecodable record after", rawFrame([]byte{recName, 0xff})},
		{"torn tail", putBlkFrame(t, orderingBlock(n, false), false)[:40]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, walName(1))
			data := slices.Concat(wal, tc.tail)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(dir)
			wantCorruptAt(t, err, path, at)

			_, _, err = Open(dir, Options{Sync: SyncNever})
			wantCorruptAt(t, err, path, at)
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Open changed the segment (%d bytes, was %d; %v)", len(got), len(data), err)
			}
		})
	}
}

// TestReplayFailurePurgesBadBlocks: a replay that fails on a bad address
// leaves no block under a wrong address in the state it filled.
func TestReplayFailurePurgesBadBlocks(t *testing.T) {
	wal, _ := badAddressWAL(t, 12, 4)
	st := newState()
	if _, err := replayStream(bytes.NewReader(wal), "wal", st, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of bad addresses: %v", err)
	}
	if err := st.Store.VerifyAll(); err != nil {
		t.Fatalf("failed replay left a bad block: %v", err)
	}
	if got := st.Store.Len(); got != 10 {
		t.Fatalf("failed replay left %d blocks, want the 10 good ones", got)
	}
}

// TestAppendRecordsReportsFirstBadBlock: a replicated batch is checked on
// the same checker replay uses; every check finishes before anything is
// appended, and the first bad record is the one reported — also when the
// loop stops later at a record that does not replicate.
func TestAppendRecordsReportsFirstBadBlock(t *testing.T) {
	dir := t.TempDir()
	l, st, err := Open(dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base, err := FramePutBlock(media.CaptureText("base.txt", "base", "en"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendFrames(base); err != nil {
		t.Fatal(err)
	}
	records, held := l.Stats().Records, fingerprint(st)

	var batch bytes.Buffer
	for i := 0; i < 16; i++ {
		batch.Write(putBlkFrame(t, orderingBlock(i, i == 5), i == 5 || i == 11))
	}
	withEdit := slices.Concat(batch.Bytes(), encodeFrame(recEditDoc, []byte("news"), nil))
	for _, frames := range [][]byte{batch.Bytes(), withEdit} {
		_, err := l.AppendFrames(frames)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "replicated record 5:") {
			t.Fatalf("AppendFrames: %v, want record 5's bad address", err)
		}
		if got := l.Stats().Records; got != records {
			t.Fatalf("rejected batch appended %d records", got-records)
		}
		if got := fingerprint(st); got != held {
			t.Fatalf("rejected batch changed the state:\n%s\nwant:\n%s", got, held)
		}
	}
}

// TestRecoveryIndependentOfGOMAXPROCS: recovery hashes block addresses
// on GOMAXPROCS workers and joins chunked payloads there, and neither the
// state it rebuilds nor the corruption it reports depends on how many
// there are. One directory — a chunked snapshot plus a WAL tail of puts,
// names, a delete and edits — loads to the same state at 1, 2 and 8; a
// bad address and a wrong chunk fail at the same record at each.
func TestRecoveryIndependentOfGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	dupHeavyCorpusBlocks(t, st, 12, 64<<10)
	live := testDoc(t, "news")
	if err := l.PutDoc("news", binaryOf(live)); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	populate(t, l, st)
	for i := 0; i < 8; i++ {
		st.Store.Put(orderingBlock(i, i%3 == 0))
		next, enc := edited(t, live, setDuration(t, "/cap", int64(100+i)))
		if err := l.EditDoc("news", enc, binaryOf(next)); err != nil {
			t.Fatal(err)
		}
		live = next
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			rec := mustLoad(t, dir)
			if err := rec.Store.VerifyAll(); err != nil {
				t.Fatal(err)
			}
			// Documents by their bytes: fingerprint names each by the
			// address of its journal entry, which every load allocates anew.
			got := fingerprint(&State{Store: rec.Store})
			for _, name := range slices.Sorted(maps.Keys(rec.Docs)) {
				got += fmt.Sprintf("doc %s %x\n", name, sha256.Sum256(docBytes(t, rec.Docs[name])))
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("recovered state differs from GOMAXPROCS=1's:\n%s\nwant:\n%s", got, want)
			}
			TestBadBlockAddressFailsAtItsRecord(t)
			TestSnapshotWrongChunkFailsItsFirstBlock(t)
		})
	}
}

// BenchmarkLoad recovers a directory holding a chunked snapshot of
// media-shaped blocks — video, audio and images, as the corpus generator
// makes them — plus a WAL tail of block puts and document edits.
// benchCorpusDir writes the recovery benchmarks' directory: a news
// document, 192 captured media blocks, a snapshot after the first 144,
// and a WAL tail of the rest plus 32 document edits. It returns the
// directory and its size on disk.
func benchCorpusDir(b *testing.B) (string, int64) {
	b.Helper()
	dir := b.TempDir()
	l, st, err := Open(dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	st.Store.SetJournal(l)
	putMedia := func(from, to int) {
		for i := from; i < to; i++ {
			seed := uint64(i + 1)
			st.Store.Put(media.CaptureVideo(fmt.Sprintf("shot-%03d.vid", i), 25*(2+i%6), 32, 24, 25, seed))
			st.Store.Put(media.CaptureAudio(fmt.Sprintf("voice-%03d.aud", i), int64(4000+i%8*1000), 8000, 220+int64(i%440), seed))
			st.Store.Put(media.CaptureImage(fmt.Sprintf("fig-%03d.img", i), 64, 48, seed))
		}
	}
	live := testDoc(b, "news")
	if err := l.PutDoc("news", binaryOf(live)); err != nil {
		b.Fatal(err)
	}
	putMedia(0, 48)
	if err := l.Snapshot(); err != nil {
		b.Fatal(err)
	}
	putMedia(48, 64)
	for i := 0; i < 32; i++ {
		recs := []core.ChangeRecord{setDuration(b, "/cap", int64(100+i))}
		next, enc := edited(b, live, recs...)
		if err := l.EditDoc("news", enc, binaryOf(next)); err != nil {
			b.Fatal(err)
		}
		live = next
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		size += info.Size()
	}
	return dir, size
}

func BenchmarkLoad(b *testing.B) {
	dir, size := benchCorpusDir(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot snapshots BenchmarkLoad's recovered corpus: cold is
// a fresh log's first snapshot, which cuts every chunked block; warm
// repeats a snapshot on a log that has cut them all already. Bytes are
// the stored payload bytes each snapshot covers.
func BenchmarkSnapshot(b *testing.B) {
	dir, _ := benchCorpusDir(b)
	open := func(b *testing.B) *Log {
		l, st, err := Open(dir, Options{Sync: SyncNever, SnapshotBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		st.Store.SetJournal(l)
		b.SetBytes(st.Store.TotalBytes())
		return l
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			l := open(b)
			b.StartTimer()
			if err := l.Snapshot(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		l := open(b)
		defer l.Close()
		if err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
