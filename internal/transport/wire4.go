package transport

// Protocol-v4 write path: one frameSender per mux connection (client
// writeLoop and server response writer) owns the wire policy —
//
//   - compression: when negotiated, frame bodies at or past the codec
//     floor are deflated whole into an opCompressed envelope, with the
//     incompressible-data bypass falling back to the raw encoding;
//   - vectored writes: a raw frame is laid out as a gather list
//     (net.Buffers) of its header, length prefixes, parts and tails;
//     a large one skips the bufio copy entirely — the buffered writer is
//     flushed and the list goes to the connection as one writev — and
//     everything else goes through the buffered writer.
//
// A batched entry's last field — a block's payload, a chunk — travels as
// its part's tail (encodeEntry), the store's own slice. So on the
// vectored path payload bytes move store → conn with no in-process copy;
// the buffered path copies them once into the bufio buffer, and the
// compressed path once into the body it deflates.
//
// send reports the actual on-wire byte count, which is what the
// traffic counters record.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"repro/internal/codec"
)

// vectoredThreshold is the payload size past which a raw frame is
// written as a writev gather list instead of through the buffered
// writer. Below it the bufio copy is cheaper than a flush + extra
// syscall. A variable so tests can force the vectored path with small
// payloads.
var vectoredThreshold = 64 << 10

// frameSender writes v2 frames for one connection with the negotiated
// wire policy. Not safe for concurrent use: each connection has exactly
// one writer goroutine, which is what owns it.
type frameSender struct {
	conn io.Writer
	bw   *bufio.Writer
	// compress enables the opCompressed envelope (negotiated at hello
	// through the codec capability).
	compress bool
	// onCompress, when set, observes every frame that actually shipped
	// compressed: raw is the plain encoding's size, wire the envelope's.
	onCompress func(raw, wire int64)
}

func newFrameSender(conn io.Writer) *frameSender {
	return &frameSender{conn: conn, bw: bufio.NewWriterSize(conn, muxBufSize)}
}

// send writes one frame under the sender's policy and returns its
// on-wire size. The frame may still be sitting in the buffered writer
// when send returns; flush before blocking on reads.
func (s *frameSender) send(f frameV2) (int64, error) {
	if len(f.parts) > maxParts {
		return 0, fmt.Errorf("transport: %d parts exceeds limit", len(f.parts))
	}
	total := 1 + 4 + 2
	for i, p := range f.parts {
		total += 4 + partLen(p, tailOf(f.tails, i))
	}
	if total > maxFrameSize {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	if s.compress && total >= codec.CompressFloor {
		if n, ok, err := s.sendCompressed(f, total); ok || err != nil {
			return n, err
		}
	}
	var w io.Writer = s.bw
	if payload := total - (1 + 4 + 2) - 4*len(f.parts); payload >= vectoredThreshold {
		if err := s.bw.Flush(); err != nil {
			return 0, err
		}
		w = s.conn
	}
	bufs := gatherFrameV2(f, total)
	if _, err := bufs.WriteTo(w); err != nil {
		return 0, err
	}
	return int64(4 + total), nil
}

// sendCompressed deflates the frame body and writes the envelope. ok is
// false (and nothing is written) when compression was not worthwhile.
func (s *frameSender) sendCompressed(f frameV2, total int) (int64, bool, error) {
	body := make([]byte, 0, total)
	body = append(body, f.op)
	body = binary.BigEndian.AppendUint32(body, f.id)
	body = binary.BigEndian.AppendUint16(body, uint16(len(f.parts)))
	for i, p := range f.parts {
		tail := tailOf(f.tails, i)
		body = binary.BigEndian.AppendUint32(body, uint32(partLen(p, tail)))
		body = append(body, p...)
		for _, t := range tail {
			body = append(body, t...)
		}
	}
	comp, ok := codec.CompressFrame(body)
	if !ok {
		return 0, false, nil
	}
	var hdr [4 + 1 + 4]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(1+4+len(comp)))
	hdr[4] = opCompressed
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(body)))
	if _, err := s.bw.Write(hdr[:]); err != nil {
		return 0, true, err
	}
	if _, err := s.bw.Write(comp); err != nil {
		return 0, true, err
	}
	wire := int64(len(hdr) + len(comp))
	if s.onCompress != nil {
		s.onCompress(int64(4+total), wire)
	}
	return wire, true, nil
}

func (s *frameSender) flush() error { return s.bw.Flush() }

// gatherFrameV2 lays one raw v2 frame out as a gather list: a meta
// buffer holds the frame header and every part-length prefix, and the
// other elements are the frame's parts and the slices of their tails,
// untouched. One backing array, no payload copies. Written to the
// connection it is one writev per 1024 elements; written to the
// bufio.Writer, one Write each. total is the already-validated body
// size.
func gatherFrameV2(f frameV2, total int) net.Buffers {
	// Sized once, so the meta ranges already in bufs never move.
	meta := make([]byte, 4+1+4+2, 4+1+4+2+4*len(f.parts))
	binary.BigEndian.PutUint32(meta[0:4], uint32(total))
	meta[4] = f.op
	binary.BigEndian.PutUint32(meta[5:9], f.id)
	binary.BigEndian.PutUint16(meta[9:11], uint16(len(f.parts)))
	n := 1 + 2*len(f.parts)
	for i := range f.parts {
		n += len(tailOf(f.tails, i))
	}
	bufs := make(net.Buffers, 0, n)
	prev := 0 // start of the pending meta range (header + successive prefixes)
	add := func(seg []byte) {
		if len(seg) == 0 { // an empty part's prefix folds into the next meta range
			return
		}
		if prev < len(meta) {
			bufs = append(bufs, meta[prev:])
			prev = len(meta)
		}
		bufs = append(bufs, seg)
	}
	for i, p := range f.parts {
		tail := tailOf(f.tails, i)
		meta = binary.BigEndian.AppendUint32(meta, uint32(partLen(p, tail)))
		add(p)
		for _, t := range tail {
			add(t)
		}
	}
	if prev < len(meta) {
		bufs = append(bufs, meta[prev:])
	}
	return bufs
}
