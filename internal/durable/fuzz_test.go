package durable

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/media"
)

// validWALBytes frames a realistic record sequence: a registered block
// put, a name re-point, a descriptor upsert and a delete.
func validWALBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	write := func(op byte, fields ...[]byte) {
		buf.Write(frameRecord(encodeRecord(op, fields...)))
	}
	b := media.CaptureText("fuzz-seed.txt", "seed payload", "en")
	desc, err := media.EncodeDescriptor(b.Descriptor)
	if err != nil {
		tb.Fatal(err)
	}
	write(recPutBlk, []byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, b.Payload, []byte{1})
	write(recName, []byte("alias.txt"), []byte(b.ID))
	var d attr.List
	d.Set("format", attr.ID("utf8"))
	dd, err := media.EncodeDescriptor(d)
	if err != nil {
		tb.Fatal(err)
	}
	write(recPutDesc, []byte("desc-1"), dd)
	write(recDelDesc, []byte("desc-1"))
	write(recDelBlk, []byte(b.ID))
	return buf.Bytes()
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

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tornOK := range []bool{true, false} {
			st := newState()
			docs := map[string][]byte{}
			end, err := replayStream(bytes.NewReader(data), "fuzz", st, docs, tornOK)
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
