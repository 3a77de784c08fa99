package transport

import "bytes"

// tailAt returns part i's tail as one slice: the bytes that follow
// parts[i] on the wire.
func tailAt(tails [][][]byte, i int) []byte { return bytes.Join(tailOf(tails, i), nil) }

// StreamChunks counts chunk frames received through streamed block
// transfers; the mux tests read it to prove the streamed path ran.
func (c *Client) StreamChunks() int64 { return c.streamChunks.Load() }
