package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
)

// ErrConflict reports a rejected edit batch: an earlier writer's edit
// won the server's registry lock and this batch's pre-edit paths no
// longer resolve. Nothing was applied — refetch (or catch up through the
// subscription) and rebuild the batch. Matched with errors.Is.
var ErrConflict = errors.New("transport: edit conflict")

// SubEventKind discriminates subscription events.
type SubEventKind int

const (
	// SubSnapshot carries the full document at a generation: the first
	// event of every subscription, and again whenever the document is
	// wholesale replaced (the generation restarts at zero).
	SubSnapshot SubEventKind = iota + 1
	// SubDelta carries the change records advancing the document from
	// FromGen to Gen. Deltas are contiguous: each event's FromGen equals
	// the previous event's Gen — a mismatch means the watcher missed a
	// window and must resynchronize with a fresh snapshot.
	SubDelta
	// SubEnd terminates the subscription; Reason says why (unsubscribed,
	// shed as too slow, server draining).
	SubEnd
)

// SubEvent is one decoded subscription event.
type SubEvent struct {
	Kind SubEventKind
	// Gen is the document generation this event establishes: the
	// snapshot's generation, or a delta's toGen.
	Gen uint64
	// FromGen is the generation a delta departs from.
	FromGen uint64
	// Doc is the decoded document of a snapshot event.
	Doc *core.Document
	// Records are a delta's change records, in application order.
	Records []core.ChangeRecord
	// Reason says why a SubEnd event ended the subscription.
	Reason string
}

// decodeSubEvent decodes one opChange frame's parts. Shared with the
// fuzz harness: every frame a server can emit must decode, and no
// mutated frame may crash the decoder.
func decodeSubEvent(parts [][]byte) (SubEvent, error) {
	if len(parts) == 0 || len(parts[0]) != 1 {
		return SubEvent{}, fmt.Errorf("transport: change frame: missing discriminator")
	}
	switch parts[0][0] {
	case changeSnapshot:
		if len(parts) != 3 || len(parts[1]) != 8 {
			return SubEvent{}, fmt.Errorf("transport: change snapshot: want [S, gen(u64), doc]")
		}
		d, err := codec.DecodeBinary(parts[2])
		if err != nil {
			return SubEvent{}, fmt.Errorf("transport: change snapshot: %w", err)
		}
		return SubEvent{Kind: SubSnapshot, Gen: binary.BigEndian.Uint64(parts[1]), Doc: d}, nil
	case changeDelta:
		if len(parts) != 4 || len(parts[1]) != 8 || len(parts[2]) != 8 {
			return SubEvent{}, fmt.Errorf("transport: change delta: want [D, fromGen(u64), toGen(u64), records]")
		}
		recs, err := core.DecodeChangeRecords(parts[3])
		if err != nil {
			return SubEvent{}, fmt.Errorf("transport: change delta: %w", err)
		}
		return SubEvent{
			Kind:    SubDelta,
			FromGen: binary.BigEndian.Uint64(parts[1]),
			Gen:     binary.BigEndian.Uint64(parts[2]),
			Records: recs,
		}, nil
	case changeEnd:
		if len(parts) != 2 {
			return SubEvent{}, fmt.Errorf("transport: change end: want [E, reason]")
		}
		return SubEvent{Kind: SubEnd, Reason: string(parts[1])}, nil
	default:
		return SubEvent{}, fmt.Errorf("transport: change frame: unknown discriminator %q", parts[0][0])
	}
}

// subRecvBuf is the response-channel depth of a subscription call: deep
// enough that the reader goroutine rarely parks on a consumer that is
// between Recv calls, shallow enough that a stalled consumer exerts
// backpressure onto the connection (and is eventually shed server-side)
// and that a process holding tens of thousands of subscriptions is not
// dominated by idle channel buffers.
const subRecvBuf = 32

// DocSubscription is one live watch over a document: the snapshot the
// subscription opened with, then Recv for every change after it.
type DocSubscription struct {
	// Doc is the document snapshot the subscription started from, at
	// generation Gen. The subscriber owns it.
	Doc *core.Document
	// Gen is the snapshot's generation.
	Gen uint64

	c         *Client
	id        uint32
	call      *muxCall
	name      string
	closeOnce sync.Once
	closeErr  error
	ended     bool
}

// SubscribeDoc opens a live subscription on the document registered
// under name. It blocks until the server's opening snapshot arrives —
// on return Doc/Gen hold the watched document's current state, and every
// mutation after it arrives through Recv in server order.
func (c *Client) SubscribeDoc(ctx context.Context, name string) (*DocSubscription, error) {
	return c.SubscribeDocSubtree(ctx, name, "")
}

// SubscribeDocSubtree is SubscribeDoc with a server-side delta filter:
// when subtree is a non-empty absolute path ("/news/story-3"), pushed
// deltas carry only the change records affecting that subtree or its
// ancestor chain. The opening snapshot is still the full document, and
// generations still advance with every server-side edit — a filtered
// delta may carry zero records — so the contiguity contract (each
// delta's FromGen equals the previous event's Gen) is unchanged. The
// replica is authoritative only within the watched subtree. An empty
// subtree (or "/") subscribes unfiltered.
func (c *Client) SubscribeDocSubtree(ctx context.Context, name, subtree string) (*DocSubscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parts := [][]byte{[]byte(name)}
	if subtree != "" && subtree != "/" {
		// Omitted when unfiltered, so plain subscriptions stay
		// byte-compatible with pre-filter servers.
		parts = append(parts, []byte(subtree))
	}
	// The per-call timeout bounds only the subscribe handshake; the
	// subscription itself lives until Close or a server-side end.
	hctx, cancel := c.withTimeout(ctx)
	defer cancel()
	m := c.mux
	id, call, err := m.beginBuf(hctx, opSubscribe, parts, subRecvBuf)
	if err != nil {
		return nil, err
	}
	c.roundTrips.Add(1)
	f, err := m.recv(hctx, call)
	if err != nil {
		// The request may already have registered server-side; tell the
		// server to drop it so a handshake cancellation does not leave a
		// zombie fan-out queue behind on a healthy pooled connection.
		m.abandon(id, call)
		go func() { _, _ = c.roundTrip(context.Background(), opUnsubscribe, u32be(id)) }()
		return nil, err
	}
	if f.op != opChange {
		m.finish(id, call)
		_, rerr := muxResponse(f)
		if rerr == nil {
			rerr = fmt.Errorf("transport: unexpected op %d answering subscribe", f.op)
		}
		return nil, rerr
	}
	ev, err := decodeSubEvent(f.parts)
	if err != nil {
		m.finish(id, call)
		return nil, err
	}
	if ev.Kind != SubSnapshot {
		m.finish(id, call)
		return nil, fmt.Errorf("transport: subscription did not open with a snapshot")
	}
	// The long-lived call must not pin a pipeline slot.
	m.detach(call)
	return &DocSubscription{Doc: ev.Doc, Gen: ev.Gen, c: c, id: id, call: call, name: name}, nil
}

// Name reports the document the subscription watches.
func (s *DocSubscription) Name() string { return s.name }

// Recv waits for the next subscription event: a delta, a fresh snapshot
// (the document was wholesale replaced), or the terminal SubEnd. After a
// SubEnd — or any error — the subscription is dead; Close it and, to
// keep watching, subscribe again.
func (s *DocSubscription) Recv(ctx context.Context) (SubEvent, error) {
	if s.ended {
		return SubEvent{}, fmt.Errorf("transport: subscription ended")
	}
	f, err := s.c.mux.recv(ctx, s.call)
	if err != nil {
		return SubEvent{}, err
	}
	if f.op != opChange {
		s.ended = true
		_, rerr := muxResponse(f)
		if rerr == nil {
			rerr = fmt.Errorf("transport: unexpected op %d inside subscription", f.op)
		}
		return SubEvent{}, rerr
	}
	ev, err := decodeSubEvent(f.parts)
	if err != nil {
		s.ended = true
		return SubEvent{}, err
	}
	if ev.Kind == SubEnd {
		s.ended = true
	}
	return ev, nil
}

// Close ends the subscription: a best-effort unsubscribe round trip
// tells the server to drop the fan-out queue, then the call deregisters
// locally. Safe to call repeatedly and after a SubEnd.
func (s *DocSubscription) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := s.c.withTimeout(context.Background())
		_, err := s.c.roundTrip(ctx, opUnsubscribe, u32be(s.id))
		cancel()
		s.c.mux.finish(s.id, s.call)
		s.closeErr = err
	})
	return s.closeErr
}

// SubmitEdit applies an ordered change-record batch to the document
// registered under name, atomically: either every record re-executes
// server-side and the call returns the document's new generation, or the
// batch is rejected — with ErrConflict when a concurrent writer
// invalidated its pre-edit paths — and nothing changed.
func (c *Client) SubmitEdit(ctx context.Context, name string, recs []core.ChangeRecord) (uint64, error) {
	parts, err := c.roundTrip(ctx, opSubmitEdit, []byte(name), core.EncodeChangeRecords(recs))
	if err != nil {
		// The server rejects conflicting batches with a "conflict:"
		// prefixed remote error (see opSubmitEdit); surface them typed so
		// writers know to catch up and rebuild instead of giving up.
		if errors.Is(err, ErrRemote) && strings.Contains(err.Error(), "conflict:") {
			return 0, fmt.Errorf("%w: %w", ErrConflict, err)
		}
		return 0, err
	}
	if len(parts) != 1 || len(parts[0]) != 8 {
		return 0, fmt.Errorf("transport: submitedit: malformed response")
	}
	return binary.BigEndian.Uint64(parts[0]), nil
}

func u32be(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}
