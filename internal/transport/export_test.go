package transport

// StreamChunks counts chunk frames received through streamed block
// transfers; the mux tests read it to prove the streamed path ran.
func (c *Client) StreamChunks() int64 { return c.streamChunks.Load() }
