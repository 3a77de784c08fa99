package transport

import (
	"encoding/binary"
	"fmt"

	"repro/internal/media"
)

// chunkAssembler reassembles a streamed block transfer (opGetBlkStream)
// from its frame sequence: one opStreamHdr, then opStreamChunk frames in
// sequence order, then opStreamEnd. Every violation — out-of-order or
// duplicate sequence numbers, payload past the declared size, a chunk
// count that disagrees, malformed parts — is an error, so a truncated or
// corrupted stream can never be mistaken for a complete block.
type chunkAssembler struct {
	started bool
	name    []byte
	medium  []byte
	desc    []byte
	size    int64
	payload []byte
	next    uint32
}

// begin consumes the opStreamHdr parts [name, medium, descriptor, size(u64)].
func (a *chunkAssembler) begin(parts [][]byte) error {
	if a.started {
		return fmt.Errorf("transport: stream header repeated")
	}
	if len(parts) != 4 || len(parts[3]) != 8 {
		return fmt.Errorf("transport: stream header wants [name, medium, descriptor, size(u64)]")
	}
	size := binary.BigEndian.Uint64(parts[3])
	if size > uint64(maxStreamBytes) {
		return fmt.Errorf("transport: stream of %d bytes exceeds limit", size)
	}
	a.started = true
	a.name, a.medium, a.desc = parts[0], parts[1], parts[2]
	a.size = int64(size)
	return nil
}

// chunk consumes one opStreamChunk parts [seq(u32), bytes]. The payload
// buffer grows with the data actually received, never with the declared
// size alone, so a lying header cannot force a huge allocation.
func (a *chunkAssembler) chunk(parts [][]byte) error {
	if !a.started {
		return fmt.Errorf("transport: stream chunk before header")
	}
	if len(parts) != 2 || len(parts[0]) != 4 {
		return fmt.Errorf("transport: stream chunk wants [seq(u32), bytes]")
	}
	seq := binary.BigEndian.Uint32(parts[0])
	if seq != a.next {
		return fmt.Errorf("transport: stream chunk %d out of order (want %d)", seq, a.next)
	}
	if len(parts[1]) == 0 {
		return fmt.Errorf("transport: empty stream chunk")
	}
	if int64(len(a.payload))+int64(len(parts[1])) > a.size {
		return fmt.Errorf("transport: stream overflows declared size %d", a.size)
	}
	a.next++
	a.payload = append(a.payload, parts[1]...)
	return nil
}

// finish consumes the opStreamEnd parts [chunkCount(u32)] and returns the
// reassembled block.
func (a *chunkAssembler) finish(parts [][]byte) (*media.Block, error) {
	if !a.started {
		return nil, fmt.Errorf("transport: stream end before header")
	}
	if len(parts) != 1 || len(parts[0]) != 4 {
		return nil, fmt.Errorf("transport: stream end wants [chunkCount(u32)]")
	}
	if count := binary.BigEndian.Uint32(parts[0]); count != a.next {
		return nil, fmt.Errorf("transport: stream ended after %d chunks, end frame claimed %d", a.next, count)
	}
	if int64(len(a.payload)) != a.size {
		return nil, fmt.Errorf("transport: stream delivered %d of %d bytes", len(a.payload), a.size)
	}
	payload := a.payload
	if cap(payload) > len(payload) {
		// Trim the grow-as-received buffer: the block keeps its bytes, not
		// append's spare capacity.
		payload = append(make([]byte, 0, len(payload)), payload...)
	}
	return blockFromParts([][]byte{a.name, a.medium, a.desc, payload})
}
