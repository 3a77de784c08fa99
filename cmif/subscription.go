package cmif

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/transport"
)

// Live documents. A Subscription keeps a local
// replica of a server-side document: the server pushes every accepted
// edit as an ordered delta of change records, the replica re-executes
// them with the same edit engine the server used, and the attached Plan
// absorbs each delta through incremental rescheduling — a watcher pays
// per-change cost proportional to what changed, not to document size.
// Writers submit edits with Client.SubmitEdit; conflicting batches are
// rejected atomically (ErrConflict) and the writer catches up and
// retries. When a replica falls behind — its queue overflowed
// server-side, its connection died, a delta's generation does not
// continue the last one — it resynchronizes with a fresh snapshot
// instead of drifting.

// ChangeRecord is one serialized edit operation: the unit of the deltas
// a subscription receives and an EditBatch submits. Records re-execute
// identically on every receiver, which is what keeps replicas
// structurally identical to the authoritative document.
type ChangeRecord = core.ChangeRecord

// EditBatch accumulates change records for one atomic SubmitEdit. The
// mutators mirror the Document edit methods (SetNodeAttr, AddArc,
// InsertNode, …) but build wire records instead of editing locally;
// paths address the document as it stood before the batch. Mutators
// chain; a construction error is remembered and reported at submission.
type EditBatch struct {
	recs []ChangeRecord
	err  error
}

// NewEditBatch starts an empty batch.
func NewEditBatch() *EditBatch { return &EditBatch{} }

// fail remembers the first construction error.
func (b *EditBatch) fail(err error) *EditBatch {
	if b.err == nil && err != nil {
		b.err = err
	}
	return b
}

// add appends a record unless the batch already failed.
func (b *EditBatch) add(rec ChangeRecord, err error) *EditBatch {
	if err != nil {
		return b.fail(err)
	}
	b.recs = append(b.recs, rec)
	return b
}

// SetAttr records assigning an attribute on the node at path.
func (b *EditBatch) SetAttr(path, name string, v Value) *EditBatch {
	rec, err := edit.RecordSetAttr(path, name, v)
	return b.add(rec, err)
}

// AddArc records appending an explicit synchronization arc to the node
// at path.
func (b *EditBatch) AddArc(path string, a SyncArc) *EditBatch {
	rec, err := edit.RecordAddArc(path, a)
	return b.add(rec, err)
}

// RemoveArc records deleting the index'th arc of the node at path.
func (b *EditBatch) RemoveArc(path string, index int) *EditBatch {
	return b.add(edit.RecordRemoveArc(path, index), nil)
}

// Insert records inserting child under the composite at parentPath at
// the given index: a negative index inserts first, one at or past the
// end appends. The subtree is serialized now; the caller keeps ownership
// of child.
func (b *EditBatch) Insert(parentPath string, index int, child *Node) *EditBatch {
	rec, err := edit.RecordInsert(parentPath, index, child)
	return b.add(rec, err)
}

// Delete records removing the node at path.
func (b *EditBatch) Delete(path string) *EditBatch {
	return b.add(edit.RecordDelete(path), nil)
}

// Move records reparenting the node at fromPath under toParentPath at
// index.
func (b *EditBatch) Move(fromPath, toParentPath string, index int) *EditBatch {
	return b.add(edit.RecordMove(fromPath, toParentPath, index), nil)
}

// Rename records changing the name attribute of the node at path.
func (b *EditBatch) Rename(path, newName string) *EditBatch {
	return b.add(edit.RecordRename(path, newName), nil)
}

// Len reports how many records the batch holds.
func (b *EditBatch) Len() int { return len(b.recs) }

// Records returns the accumulated records, or the first construction
// error.
func (b *EditBatch) Records() ([]ChangeRecord, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.recs, nil
}

// Apply re-executes the batch against a local document, in place and all
// or nothing — the same code path the server and every subscriber
// replica run. A batch that fails at any record leaves d as it was and
// names the record. Useful for previewing a batch before submitting it;
// apply to a Clone to keep the original intact. It reports no broken
// arcs: use the Document methods, or CheckArcs, for that.
func (b *EditBatch) Apply(d *Document) error {
	recs, err := b.Records()
	if err != nil {
		return err
	}
	return edit.Apply(d.doc, recs)
}

// SubmitEdit submits an edit batch against the document registered under
// name, atomically: either the whole batch applies — the call returns
// the document's new generation, and every subscriber receives the batch
// as one delta — or nothing changed. A batch whose pre-edit paths a
// concurrent writer invalidated is rejected with ErrConflict; catch up
// and rebuild it.
func (c *Client) SubmitEdit(ctx context.Context, name string, b *EditBatch) (uint64, error) {
	recs, err := b.Records()
	if err != nil {
		return 0, err
	}
	gen, err := c.tc.SubmitEdit(ctx, name, recs)
	if err != nil {
		return 0, wireError(err)
	}
	return gen, nil
}

// Subscription is a live local replica of a server-side document. Next
// blocks for the next server push, applies it, and brings the replica's
// Plan up to date with incremental rescheduling. Not safe for concurrent
// use; one goroutine owns a subscription.
type Subscription struct {
	c       *Client
	name    string
	subtree string
	opts    []ScheduleOption

	sub     *transport.DocSubscription
	doc     *Document
	plan    *Plan
	gen     uint64
	resyncs int
	closed  bool
}

// Subscribe opens a live subscription on the document registered under
// name: the returned Subscription holds a replica of the document's
// current state and a Plan scheduled from it, and Next follows every
// subsequent edit. WithSubtree restricts the delta stream to one part of
// the document; WithSubscribeSchedule forwards scheduling options to the
// replica's Plan. The initial scheduling must succeed; a document
// that cannot be scheduled cannot be watched incrementally.
func (c *Client) Subscribe(ctx context.Context, name string, opts ...SubscribeOption) (*Subscription, error) {
	cfg := subscribeConfigOf(opts)
	s := &Subscription{c: c, name: name, subtree: cfg.subtree, opts: cfg.sched}
	if err := s.open(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// open establishes (or re-establishes) the wire subscription and builds
// the replica and plan from its opening snapshot.
func (s *Subscription) open(ctx context.Context) error {
	sub, err := s.c.tc.SubscribeDocSubtree(ctx, s.name, s.subtree)
	if err != nil {
		return wireError(err)
	}
	doc := wrapDocument(sub.Doc)
	plan, err := Schedule(doc, s.opts...)
	if err != nil {
		_ = sub.Close()
		return fmt.Errorf("cmif: subscribe %q: schedule snapshot: %w", s.name, err)
	}
	s.sub, s.doc, s.plan, s.gen = sub, doc, plan, sub.Gen
	return nil
}

// resync abandons the current replica and starts over from a fresh
// snapshot: the server shed us, the connection died, or a delta did not
// continue our generation. A new wire subscription delivers the
// snapshot and the stream after it atomically, so nothing is missed across the switch.
func (s *Subscription) resync(ctx context.Context) error {
	if s.sub != nil {
		_ = s.sub.Close()
		s.sub = nil
	}
	if err := s.open(ctx); err != nil {
		return err
	}
	s.resyncs++
	return nil
}

// Next blocks for the next change to the watched document, applies it to
// the replica, and returns the rescheduled Plan. A delta patches the
// plan's constraint graph where the edit touched it before the graph is
// solved again; a wholesale document replacement (or any condition that
// forces a resync) costs a full snapshot and schedule. ctx bounds the wait; its cancellation leaves
// the subscription usable.
func (s *Subscription) Next(ctx context.Context) (*Plan, error) {
	if s.closed {
		return nil, fmt.Errorf("cmif: subscription closed")
	}
	for {
		ev, err := s.sub.Recv(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// The connection died under the subscription: resynchronize
			// on a healthy one.
			if rerr := s.resync(ctx); rerr != nil {
				return nil, rerr
			}
			return s.plan, nil
		}
		switch ev.Kind {
		case transport.SubSnapshot:
			// The document was wholesale replaced (generation restarts).
			doc := wrapDocument(ev.Doc)
			plan, err := Schedule(doc, s.opts...)
			if err != nil {
				return nil, fmt.Errorf("cmif: subscription %q: schedule snapshot: %w", s.name, err)
			}
			s.doc, s.plan, s.gen = doc, plan, ev.Gen
			return s.plan, nil
		case transport.SubDelta:
			if ev.FromGen != s.gen {
				// A generation gap: we missed a window (the server's view
				// moved while we resubscribed, or frames were dropped).
				// Never apply a delta against the wrong base.
				if err := s.resync(ctx); err != nil {
					return nil, err
				}
				return s.plan, nil
			}
			if err := edit.Apply(s.doc.doc, ev.Records); err != nil {
				// The replica diverged — re-execution failed where the
				// server succeeded. Rebuild from a snapshot.
				if rerr := s.resync(ctx); rerr != nil {
					return nil, fmt.Errorf("cmif: subscription %q: apply delta: %v; resync: %w", s.name, err, rerr)
				}
				return s.plan, nil
			}
			s.gen = ev.Gen
			plan, err := s.plan.Reschedule()
			if err != nil {
				return nil, fmt.Errorf("cmif: subscription %q: reschedule: %w", s.name, err)
			}
			// The plan has read the replica's change log; drop it, and the
			// subtrees its remove records hold, so a long-lived replica
			// does not grow with every edit it absorbs.
			s.doc.doc.TrimChanges()
			s.plan = plan
			return s.plan, nil
		case transport.SubEnd:
			// Shed as too slow, server draining, or an unsubscribe racing
			// us: start over from a snapshot.
			if err := s.resync(ctx); err != nil {
				return nil, fmt.Errorf("cmif: subscription %q ended (%s); resync: %w", s.name, ev.Reason, err)
			}
			return s.plan, nil
		default:
			return nil, fmt.Errorf("cmif: subscription %q: unknown event kind %d", s.name, ev.Kind)
		}
	}
}

// Document returns the replica at the generation Next last established.
// The subscription owns it: treat it as read-only, and Clone before
// editing. Next drops the replica's change log once its own plan has
// read it, so a Plan of your own over the replica rebuilds on its next
// Reschedule rather than patching.
func (s *Subscription) Document() *Document { return s.doc }

// Plan returns the replica's current plan.
func (s *Subscription) Plan() *Plan { return s.plan }

// Generation reports the replica's document generation: how many change
// records it has absorbed since the document was last registered
// wholesale.
func (s *Subscription) Generation() uint64 { return s.gen }

// Resyncs counts snapshot resynchronizations — recoveries from sheds,
// gaps and connection failures. A hot watcher on a healthy connection
// stays at zero; a rising count means this watcher cannot keep up.
func (s *Subscription) Resyncs() int { return s.resyncs }

// Name reports the watched document's registered name.
func (s *Subscription) Name() string { return s.name }

// Close ends the subscription and releases its server-side fan-out
// queue. Safe to call repeatedly.
func (s *Subscription) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.sub == nil {
		return nil
	}
	err := s.sub.Close()
	if err != nil && !errors.Is(err, context.Canceled) {
		return wireError(err)
	}
	return nil
}
