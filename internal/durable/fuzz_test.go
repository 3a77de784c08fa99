package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/media"
)

// validWALBytes frames a realistic record sequence, as a current writer
// emits it: a block put (register flag 0), its name and an alias, and a
// delete.
func validWALBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	b := media.CaptureText("fuzz-seed.txt", "seed payload", "en")
	buf.Write(putBlkFrame(tb, b, false))
	buf.Write(encodeFrame(recName, []byte(b.Name), []byte(b.ID)))
	buf.Write(encodeFrame(recName, []byte("alias.txt"), []byte(b.ID)))
	buf.Write(encodeFrame(recDelBlk, []byte(b.ID)))
	return buf.Bytes()
}

// retiredWALSeeds are records outside what a current writer emits: a
// retired op-5 descriptor upsert, and a recPutBlk with its register flag
// set. Replay refuses both as corruption.
func retiredWALSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var d attr.List
	d.Set("format", attr.ID("utf8"))
	dd, err := media.EncodeDescriptor(d)
	if err != nil {
		tb.Fatal(err)
	}
	b := media.CaptureText("flagged.txt", "registered by flag", "en")
	desc, err := b.DescriptorText()
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		encodeFrame(5, []byte("desc-1"), dd),
		encodeFrame(recPutBlk, []byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, b.Payload, []byte{1}),
	}
}

// FuzzWALReplay feeds arbitrary bytes to the replayer, in both the
// torn-tolerant (WAL tail) and strict (snapshot) modes: it must never
// panic, never allocate the corrupt length a frame header claims, and
// only ever return clean errors. The document-record seeds carry it into
// codec.DecodeBinary, core.DecodeChangeRecords and edit.Apply, and every
// document it replays must encode again.
func FuzzWALReplay(f *testing.F) {
	for _, s := range docRecordSeeds(f) {
		f.Add(s.data)
	}
	valid := validWALBytes(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                 // torn tail
	f.Add(valid[:frameHeaderSize-2])            // torn header
	f.Add(append([]byte{0, 0, 0, 0}, valid...)) // zero-length frame
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f // impossible length
	f.Add(huge)
	f.Add([]byte("not a wal at all, just prose pretending"))
	for _, seed := range retiredWALSeeds(f) {
		f.Add(seed)
		for _, tornOK := range []bool{true, false} {
			if _, err := replayStream(bytes.NewReader(seed), "retired", newState(), tornOK); !errors.Is(err, ErrCorrupt) {
				f.Fatalf("retired record (op %d) replays with %v, want ErrCorrupt", seed[frameHeaderSize], err)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tornOK := range []bool{true, false} {
			st := newState()
			end, err := replayStream(bytes.NewReader(data), "fuzz", st, tornOK)
			if end < 0 || end > int64(len(data)) {
				t.Fatalf("replay end %d outside input of %d bytes", end, len(data))
			}
			if err != nil && !errors.Is(err, ErrCorrupt) && err != io.EOF {
				// Any failure must be a typed corruption report; raw IO
				// errors cannot come from a bytes.Reader.
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("replay returned untyped error %T: %v", err, err)
				}
			}
			// Whatever replayed must at least be internally consistent.
			if verr := st.Store.VerifyAll(); verr != nil {
				t.Fatalf("replay accepted a corrupt block: %v", verr)
			}
			for name, d := range st.Docs {
				if _, eerr := codec.EncodeBinary(d); eerr != nil {
					t.Fatalf("replayed document %q does not encode: %v", name, eerr)
				}
			}
		}
	})
}

// fingerprint lists what a log's state holds: each document's bytes by
// name and pointer, each block by content address, and each name's
// target.
func fingerprint(st *State) string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(st.docs)) {
		fmt.Fprintf(&b, "doc %s %p\n", name, st.docs[name])
	}
	var ids []string
	st.Store.Each(func(blk *media.Block) bool {
		ids = append(ids, blk.ID)
		return true
	})
	slices.Sort(ids)
	fmt.Fprintln(&b, "blocks", ids)
	for _, name := range st.Store.Names() {
		id, _ := st.Store.Resolve(name)
		fmt.Fprintf(&b, "name %s %s\n", name, id)
	}
	return b.String()
}

// FuzzAppendFrames is FuzzWALReplay's replication twin: arbitrary bytes
// shipped to a live log must never panic, and every error must be typed.
// A rejected batch appends and applies nothing; an accepted one
// recovers, after Close and Open, to the state it applied — documents
// byte-equal by binary, blocks and names equal.
func FuzzAppendFrames(f *testing.F) {
	blk := media.CaptureText("fuzz.txt", "fuzzed body", "en")
	putBlk, err := FramePutBlock(blk)
	if err != nil {
		f.Fatal(err)
	}
	base := slices.Concat(FramePutDoc("news", docBytes(f, testDoc(f, "news"))), putBlk,
		FrameRegisterName("fuzz.txt", blk.ID))
	other := media.CaptureText("other.txt", "another body", "en")
	putOther, err := FramePutBlock(other)
	if err != nil {
		f.Fatal(err)
	}
	valid := slices.Concat(FramePutDoc("late", docBytes(f, testDoc(f, "late"))), putOther,
		FrameRegisterName("other.txt", other.ID), FrameRegisterName("fuzz.txt", other.ID),
		encodeFrame(recDelBlk, []byte(blk.ID)))
	f.Add([]byte{})
	f.Add(base)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := slices.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(slices.Concat(valid, FramePutDoc("bad", []byte("garbage")))) // verified, then refused
	f.Add(validWALBytes(f))
	for _, s := range docRecordSeeds(f) {
		f.Add(s.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		opts := Options{Sync: SyncNever, SnapshotBytes: -1}
		l, _, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// A base state, so a rejected batch has something to leave alone.
		if _, err := l.AppendFrames(base); err != nil {
			t.Fatal(err)
		}
		records, held := l.Stats().Records, fingerprint(l.st)
		if _, err := l.AppendFrames(data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("AppendFrames returned untyped error %T: %v", err, err)
			}
			if got := l.Stats().Records; got != records {
				t.Fatalf("rejected batch appended %d records", got-records)
			}
			if got := fingerprint(l.st); got != held {
				t.Fatalf("rejected batch changed the state:\n%s\nwant:\n%s", got, held)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re, reSt, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("accepted batch does not recover: %v", err)
		}
		defer re.Close()
		compareStates(t, reSt, liveState(t, l))
	})
}
