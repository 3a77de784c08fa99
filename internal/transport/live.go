package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/edit"
)

// Live documents: the registry is the fan-out hub. Every
// watched document has a set of subscribers, each with a bounded event
// queue; every mutation — an opSubmitEdit batch through EditDoc, a
// whole-document PutDoc — broadcasts to those queues under the registry
// lock, so the order subscribers observe is exactly the order mutations
// landed (and, with a Journal attached, exactly the WAL order:
// EditDoc journals before it broadcasts, so an acked, fanned-out edit
// survives a crash). A subscriber that cannot keep up — its queue
// overflows — is shed rather than allowed to stall the hub: its
// subscription ends with a changeEnd frame and the client resynchronizes
// with a fresh fetch.

// Change-frame discriminators: parts[0][0] of every opChange frame.
const (
	// changeSnapshot carries [gen(u64), doc(binary)] — the full document
	// at generation gen. Always the first frame of a subscription, and
	// pushed again whenever the document is wholesale replaced.
	changeSnapshot byte = 'S'
	// changeDelta carries [fromGen(u64), toGen(u64), records] — the
	// encoded edit batch advancing the document from one generation to
	// the next. Deltas arrive contiguously: each frame's fromGen equals
	// the previous frame's toGen.
	changeDelta byte = 'D'
	// changeEnd carries [reason] and terminates the subscription: the
	// client unsubscribed, the connection is draining, or the subscriber
	// was shed as too slow.
	changeEnd byte = 'E'
)

// Shed reasons specific to the subscription path.
const (
	// shedSubSlow: the subscriber's bounded event queue overflowed.
	shedSubSlow = "sub_slow"
	// shedSubsFull: the server-wide subscriber bound was reached.
	shedSubsFull = "subs_full"
)

// endReasonUnsubscribed labels a clean, client-requested end.
const endReasonUnsubscribed = "unsubscribed"

// defaultSubQueue bounds each subscriber's event queue when the server
// does not configure Server.SubQueueCap: deep enough to absorb an edit
// burst, shallow enough that one stuck watcher sheds quickly instead of
// buffering without bound.
const defaultSubQueue = 64

// errUnknownDoc distinguishes "no such document" mutations/subscriptions
// so serve loops answer opErrNotFound. It wraps ErrNotFound, so cluster
// handlers calling EditDoc locally classify the miss the same way they
// classify a forwarded peer's opErrNotFound reply.
var errUnknownDoc = fmt.Errorf("%w: transport: no such document", ErrNotFound)

// errSubsFull reports the server-wide subscriber bound; serve loops
// answer opErrBusy with the subs_full shed reason.
var errSubsFull = errors.New("transport: subscriber limit reached")

// subEvent is one queued fan-out event. Payload slices are shared across
// every subscriber of the broadcast — queues must treat them read-only.
type subEvent struct {
	kind           byte // changeSnapshot or changeDelta
	fromGen, toGen uint64
	doc, recs      []byte
	at             time.Time // broadcast instant, for fan-out lag metrics
}

// parts renders the event as opChange frame parts.
func (ev subEvent) parts() [][]byte {
	switch ev.kind {
	case changeSnapshot:
		return [][]byte{{changeSnapshot}, u64be(ev.toGen), ev.doc}
	default:
		return [][]byte{{changeDelta}, u64be(ev.fromGen), u64be(ev.toGen), ev.recs}
	}
}

// endParts renders a changeEnd frame's parts.
func endParts(reason string) [][]byte {
	return [][]byte{{changeEnd}, []byte(reason)}
}

func u64be(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// Subscriber is one watcher's registry-side state, opaque outside this
// package. The pump goroutine of the owning connection drains q onto the
// wire; end may be called from any goroutine (broadcast overflow,
// unsubscribe, teardown) and is idempotent — the first reason wins.
type Subscriber struct {
	hub *Registry // the registry whose fan-out feeds q
	doc string
	// subtree, when non-empty, restricts delta fan-out to change records
	// affecting that part of the document (see recordTouches). Snapshots
	// are always full documents.
	subtree  string
	q        chan subEvent
	stop     chan struct{}
	stopOnce sync.Once
	reason   string // valid after stop is closed
}

// end terminates the subscription with reason. Safe to call repeatedly
// and from multiple goroutines.
func (s *Subscriber) end(reason string) {
	s.stopOnce.Do(func() {
		s.reason = reason
		close(s.stop)
	})
}

// liveState is the registry's fan-out hub, guarded by Registry.mu: the
// subscriber set of each watched document. Each document's generation —
// cumulative across edit batches, reset by a wholesale PutDoc — lives in
// its Entry.
type liveState struct {
	subs  map[string]map[*Subscriber]struct{}
	count int
}

// Generation reports the generation of the document registered under
// name: how many change records have been applied since it was last
// wholesale registered. No server path calls it — they read the entry
// under the lock; it is how tests check the generation accounting.
func (r *Registry) Generation(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.docs[name]; ok {
		return e.gen
	}
	return 0
}

// SubscriberCount reports the live subscriptions registered across every
// document — queues whose events a connection pump still drains. No
// server path needs the total; it is how a test checks that teardown
// leaks no subscriber.
func (r *Registry) SubscriberCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live.count
}

// SubscribersOf reports the live subscriptions watching the document
// registered under name.
func (r *Registry) SubscribersOf(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.live.subs[name])
}

// DropDoc unregisters the document under name and ends its watchers'
// subscriptions with reason (they resynchronize by subscribing again —
// at an edge, that re-drives the read-through load path). The dropped
// state is forgotten, not journaled: DropDoc is cache eviction, not
// deletion, and a durable origin never calls it. Reports whether a
// document was registered.
func (r *Registry) DropDoc(name, reason string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.docs[name]; !ok {
		return false
	}
	delete(r.docs, name)
	for sub := range r.live.subs[name] {
		sub.end(reason)
	}
	return true
}

// Subscribe registers a watcher on the document under name and seeds its
// queue with the current snapshot, atomically with respect to mutations:
// no edit can intervene between the snapshot and the registration, so
// the first delta a subscriber observes continues exactly where its
// snapshot left off. queueCap bounds the event queue (<=0 means the
// default); maxSubs, when positive, bounds subscriptions server-wide.
func (r *Registry) Subscribe(name, subtree string, queueCap, maxSubs int) (*Subscriber, error) {
	if queueCap <= 0 {
		queueCap = defaultSubQueue
	}
	subtree = normalizeSubtree(subtree)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.docs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownDoc, name)
	}
	if maxSubs > 0 && r.live.count >= maxSubs {
		return nil, errSubsFull
	}
	data, err := e.Binary()
	if err != nil {
		return nil, fmt.Errorf("transport: encode snapshot of %q: %w", name, err)
	}
	sub := &Subscriber{
		hub:     r,
		doc:     name,
		subtree: subtree,
		q:       make(chan subEvent, queueCap),
		stop:    make(chan struct{}),
	}
	sub.q <- subEvent{kind: changeSnapshot, toGen: e.gen, doc: data, at: time.Now()}
	set := r.live.subs[name]
	if set == nil {
		set = make(map[*Subscriber]struct{})
		r.live.subs[name] = set
	}
	set[sub] = struct{}{}
	r.live.count++
	return sub, nil
}

// unsubscribe drops the watcher from its hub. Idempotent; the queue is
// abandoned (broadcasts stop reaching it immediately).
func (s *Subscriber) unsubscribe() {
	r := s.hub
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.live.subs[s.doc]
	if _, ok := set[s]; !ok {
		return
	}
	delete(set, s)
	if len(set) == 0 {
		delete(r.live.subs, s.doc)
	}
	r.live.count--
}

// broadcastLocked fans one event out to every watcher of name. Sends
// never block: a subscriber whose queue is full is shed — its
// subscription ends and its connection pump emits the terminal frame.
// Callers hold r.mu, so subscribers observe events in mutation order.
// For delta events, recs carries the batch's decoded records so
// subtree-filtered subscribers receive only the records touching their
// subtree; the filtered encoding is computed at most once per distinct
// subtree per broadcast. Filtered deltas keep the authoritative
// fromGen/toGen — generations count server-side mutations, not delivered
// records — so a delta carrying zero relevant records still advances the
// watcher's generation and the contiguity contract holds.
func (r *Registry) broadcastLocked(name string, ev subEvent, recs []core.ChangeRecord) {
	var filtered map[string][]byte
	for sub := range r.live.subs[name] {
		out := ev
		if ev.kind == changeDelta && sub.subtree != "" {
			enc, ok := filtered[sub.subtree]
			if !ok {
				enc = core.EncodeChangeRecords(filterRecords(recs, sub.subtree))
				if filtered == nil {
					filtered = make(map[string][]byte, 1)
				}
				filtered[sub.subtree] = enc
			}
			out.recs = enc
		}
		select {
		case sub.q <- out:
		default:
			sub.end(shedSubSlow)
		}
	}
}

// normalizeSubtree canonicalizes a subscription's subtree filter: "" and
// "/" mean the whole document (no filter), and trailing slashes are
// insignificant.
func normalizeSubtree(subtree string) string {
	for len(subtree) > 1 && subtree[len(subtree)-1] == '/' {
		subtree = subtree[:len(subtree)-1]
	}
	if subtree == "/" {
		return ""
	}
	return subtree
}

// filterRecords keeps the records of one edit batch that affect the
// subtree rooted at the absolute path subtree.
func filterRecords(recs []core.ChangeRecord, subtree string) []core.ChangeRecord {
	out := make([]core.ChangeRecord, 0, len(recs))
	for _, rec := range recs {
		if recordTouches(rec, subtree) {
			out = append(out, rec)
		}
	}
	return out
}

// recordTouches reports whether one change record is relevant to a
// watcher of subtree: its pre-edit path or its destination parent lies
// inside the subtree, is the subtree root itself, or sits on the
// ancestor chain above it (removing, moving or re-attributing an
// ancestor affects everything below it). A record carrying neither path
// is delivered — never silently dropped on a shape the filter does not
// understand. Paths are matched textually, so positional ("#i")
// components match exactly as the submitter spelled them; watchers of
// positionally-addressed subtrees should expect conservative delivery,
// and a replica filtered this way is authoritative only within its
// subtree.
func recordTouches(rec core.ChangeRecord, subtree string) bool {
	if rec.Path == "" && rec.Dest == "" {
		return true
	}
	if rec.Path != "" && pathTouches(rec.Path, subtree) {
		return true
	}
	return rec.Dest != "" && pathTouches(rec.Dest, subtree)
}

// pathTouches reports whether the node at absolute path p is the subtree
// root, inside the subtree, or an ancestor of it. Both paths are
// slash-separated; component boundaries are respected ("/ab" is not
// inside "/a").
func pathTouches(p, subtree string) bool {
	p = normalizeSubtree(p)
	if p == "" || subtree == "" || p == subtree {
		return true
	}
	if len(p) > len(subtree) && p[:len(subtree)] == subtree && p[len(subtree)] == '/' {
		return true // p inside the subtree
	}
	if len(subtree) > len(p) && subtree[:len(p)] == p && subtree[len(p)] == '/' {
		return true // p an ancestor of the subtree root
	}
	return false
}

// EditDoc applies an ordered edit batch to the document registered under
// name, atomically. The batch edits the registered tree in place while no
// reader holds it (see Entry.shared) and a copy, made once, when one may;
// a conflicting batch (a record whose pre-edit path no longer resolves,
// because an earlier writer's edit won the registry lock) or one the
// Journal refuses is taken back, so it leaves the registered document,
// its binary and its generation as they were and reaches no subscriber,
// and the submitter refetches. An accepted batch is encoded once,
// journaled and broadcast as the same bytes, under the registry lock:
// the WAL order, the registry order and the delta order every watcher
// observes are the same order. It returns the document's new generation:
// the old one plus the batch's record count plus one.
func (r *Registry) EditDoc(name string, recs []core.ChangeRecord) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("transport: empty edit batch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.docs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", errUnknownDoc, name)
	}
	d := cur.doc
	if cur.shared.Load() {
		d = d.Clone()
	}
	undo, err := edit.ApplyUndo(d, recs)
	if err != nil {
		return 0, fmt.Errorf("conflict: %w", err)
	}
	// Generations advance as they did when every edit copied the tree
	// (the copy's change log opened with one record, and each edit record
	// added one), so origins, edges and subscribers of every release
	// agree.
	next := &Entry{doc: d, gen: cur.gen + uint64(len(recs)) + 1}
	enc := core.EncodeChangeRecords(recs)
	if r.Journal != nil {
		if err := r.Journal.EditDoc(name, enc, next.Binary); err != nil {
			undo()
			return 0, fmt.Errorf("durability: %w", err)
		}
	}
	// Nothing reads the registered tree's change log.
	d.TrimChanges()
	r.docs[name] = next
	if len(r.live.subs[name]) > 0 {
		r.broadcastLocked(name, subEvent{
			kind:    changeDelta,
			fromGen: cur.gen,
			toGen:   next.gen,
			recs:    enc,
			at:      time.Now(),
		}, recs)
	}
	return next.gen, nil
}

// PutDocAt is PutDoc with an explicit generation baseline instead of
// zero. A proxy replicating an upstream document registers the snapshot
// at the upstream's authoritative generation, so its own subscribers
// observe the same generation numbers the origin assigns — a writer can
// correlate the generation a forwarded edit returned with the deltas its
// subscription through the proxy delivers.
//
// The registration and its journal append happen under the lock, so
// racing registrations of one name journal in the order they landed —
// recovery replays the same winner the pre-crash server served. (Readers
// wait out the append, fsync included under SyncAlways.) A journal
// failure is sticky and surfaces through durability(). Watchers receive
// the new document as a snapshot at gen.
func (r *Registry) PutDocAt(name string, d *core.Document, gen uint64) {
	e := &Entry{doc: d, gen: gen}
	e.shared.Store(true) // the caller handed d over and may still read it
	r.mu.Lock()
	defer r.mu.Unlock()
	r.docs[name] = e
	if r.Journal != nil {
		_ = r.Journal.PutDoc(name, e.Binary)
	}
	if len(r.live.subs[name]) == 0 {
		return
	}
	data, err := e.Binary()
	if err != nil {
		// An encode failure means a subscriber cannot be brought to the
		// new state — end its subscription and let it resynchronize.
		for sub := range r.live.subs[name] {
			sub.end("snapshot encode failed")
		}
		return
	}
	r.broadcastLocked(name, subEvent{kind: changeSnapshot, toGen: gen, doc: data, at: time.Now()}, nil)
}
