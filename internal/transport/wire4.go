package transport

// Protocol-v4 write path: one frameSender per mux connection (client
// writeLoop and server response writer) owns the wire policy —
//
//   - compression: when negotiated, frame bodies at or past the codec
//     floor are deflated whole into an opCompressed envelope, with the
//     incompressible-data bypass falling back to the raw encoding;
//   - vectored writes: large raw frames skip the bufio copy entirely —
//     the buffered writer is flushed and the frame goes to the
//     connection as a writev gather list (net.Buffers) whose payload
//     elements are the store's own slices, so payload bytes move
//     store → conn with no intermediate copy;
//   - everything else takes the buffered writeFrameV2 path unchanged.
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
func (s *frameSender) send(op byte, id uint32, parts [][]byte) (int64, error) {
	if len(parts) > maxParts {
		return 0, fmt.Errorf("transport: %d parts exceeds limit", len(parts))
	}
	total := 1 + 4 + 2
	payload := 0
	for _, p := range parts {
		total += 4 + len(p)
		payload += len(p)
	}
	if total > maxFrameSize {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	if s.compress && total >= codec.CompressFloor {
		if n, ok, err := s.sendCompressed(op, id, parts, total); ok || err != nil {
			return n, err
		}
	}
	if payload >= vectoredThreshold {
		if err := s.bw.Flush(); err != nil {
			return 0, err
		}
		if err := writeFrameV2Vectored(s.conn, op, id, parts, total); err != nil {
			return 0, err
		}
		return int64(4 + total), nil
	}
	if err := writeFrameV2(s.bw, op, id, parts...); err != nil {
		return 0, err
	}
	return int64(4 + total), nil
}

// sendCompressed deflates the frame body and writes the envelope. ok is
// false (and nothing is written) when compression was not worthwhile.
func (s *frameSender) sendCompressed(op byte, id uint32, parts [][]byte, total int) (int64, bool, error) {
	body := make([]byte, 0, total)
	body = append(body, op)
	body = binary.BigEndian.AppendUint32(body, id)
	body = binary.BigEndian.AppendUint16(body, uint16(len(parts)))
	for _, p := range parts {
		body = binary.BigEndian.AppendUint32(body, uint32(len(p)))
		body = append(body, p...)
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

// writeFrameV2Vectored writes one raw v2 frame as a single gather list:
// a meta buffer holds the frame header and every part-length prefix,
// and the payload elements are the caller's slices, untouched. One
// backing array, at most 2·parts+1 iovecs, no payload copies. total is
// the already-validated body size.
func writeFrameV2Vectored(conn io.Writer, op byte, id uint32, parts [][]byte, total int) error {
	meta := make([]byte, 4+1+4+2+4*len(parts))
	binary.BigEndian.PutUint32(meta[0:4], uint32(total))
	meta[4] = op
	binary.BigEndian.PutUint32(meta[5:9], id)
	binary.BigEndian.PutUint16(meta[9:11], uint16(len(parts)))
	bufs := make(net.Buffers, 0, 1+2*len(parts))
	off := 11
	prev := 0 // start of the pending meta range (header + successive prefixes)
	for _, p := range parts {
		binary.BigEndian.PutUint32(meta[off:off+4], uint32(len(p)))
		off += 4
		if len(p) == 0 {
			continue // fold this prefix into the next meta range
		}
		bufs = append(bufs, meta[prev:off], p)
		prev = off
	}
	if prev < off {
		bufs = append(bufs, meta[prev:off])
	}
	_, err := bufs.WriteTo(conn)
	return err
}
