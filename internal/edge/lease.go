package edge

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// DefaultLeaseTTL is how long an idle, unwatched document stays leased
// before the edge releases its upstream subscription and drops the
// cached copy. Access renews implicitly: an expired document re-leases
// on its next read.
const DefaultLeaseTTL = 2 * time.Minute

// Lease state machine. A document at the edge is in exactly one of
// three states:
//
//	cold    — not in the registry; no upstream subscription. The first
//	          downstream access (GetDoc, Subscribe) drives leaseDoc,
//	          which subscribes upstream and registers the snapshot:
//	          cold → leased.
//	leased  — registered locally with a live upstream subscription (the
//	          lease). Upstream edits arrive as deltas and re-apply into
//	          the registry, fanning out to downstream subscribers; the
//	          document is as fresh as the change stream. A delta gap,
//	          apply failure or dropped connection re-snapshots in place
//	          (still leased). The TTL sweeper moves an idle, unwatched
//	          document leased → cold; an unrecoverable upstream loss
//	          moves it leased → stale.
//	stale   — the upstream subscription died and could not be
//	          re-established. The document leaves the registry (watchers
//	          are shed and resynchronize), so the next access retries
//	          cold → leased rather than serving bytes of unknown age.
//	          Stale is therefore transient: it is observable only as
//	          the shed reason on the way back to cold.
//
// Blocks never participate: content addressing means a cached block is
// immortal, and only LRU pressure evicts it.

// endReasonLeaseExpired sheds downstream watchers when an idle lease
// expires (they resubscribe, re-driving leaseDoc). Unwatched documents
// expire silently.
const endReasonLeaseExpired = "lease_expired"

// endReasonLeaseLost sheds downstream watchers when the upstream
// subscription died and resubscribing failed.
const endReasonLeaseLost = "lease_lost"

// lease is one leased document's table entry. The pump goroutine owns
// gen; lastUse is touched from request handlers.
type lease struct {
	name    string
	cancel  context.CancelFunc
	done    chan struct{}
	lastUse atomic.Int64 // unix nanos of the last explicit access
	gen     uint64       // upstream generation the pump last applied
}

func (l *lease) touch() { l.lastUse.Store(time.Now().UnixNano()) }

// leaseTable tracks the edge's live leases, with singleflight on
// establishment so a thundering herd of first accesses subscribes
// upstream once.
type leaseTable struct {
	mu      sync.Mutex
	leases  map[string]*lease
	pending map[string]chan struct{}
}

func newLeaseTable() *leaseTable {
	return &leaseTable{
		leases:  make(map[string]*lease),
		pending: make(map[string]chan struct{}),
	}
}

// Len reports the live lease count.
func (lt *leaseTable) Len() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.leases)
}

// leaseDoc ensures the document under name is leased: a hit renews the
// existing lease, a miss establishes one (subscribe upstream, register
// the snapshot, start the invalidation pump), and concurrent misses for
// one name collapse into a single upstream subscribe. Reports whether
// the document exists upstream.
func (e *Edge) leaseDoc(name string) bool {
	lt := e.lt
	for {
		lt.mu.Lock()
		if l, ok := lt.leases[name]; ok {
			if _, exists := e.Registry.GetDoc(name); exists {
				l.touch()
				lt.mu.Unlock()
				return true
			}
			// A racing eviction dropped the document out from under a
			// live lease (expiry losing to a concurrent re-lease). Tear
			// the broken lease down and establish a fresh one.
			delete(lt.leases, name)
			lt.mu.Unlock()
			l.cancel()
			continue
		}
		if ch, ok := lt.pending[name]; ok {
			lt.mu.Unlock()
			select {
			case <-ch:
				continue // the leader finished; re-check the table
			case <-e.baseCtx.Done():
				return false
			}
		}
		ch := make(chan struct{})
		lt.pending[name] = ch
		lt.mu.Unlock()

		ok := e.establishLease(name)
		lt.mu.Lock()
		delete(lt.pending, name)
		lt.mu.Unlock()
		close(ch)
		return ok
	}
}

// establishLease subscribes upstream, registers the snapshot locally and
// starts the pump. Reports false when the document does not exist
// upstream (or upstream is unreachable).
func (e *Edge) establishLease(name string) bool {
	ctx, cancel := context.WithCancel(e.baseCtx)
	sub, err := e.subscribeUpstream(ctx, name)
	if err != nil {
		cancel()
		return false
	}
	l := &lease{name: name, cancel: cancel, done: make(chan struct{})}
	l.touch()
	l.gen = sub.Gen
	// Registering at the upstream generation keeps downstream watchers on
	// the origin's generation numbers, so a writer can correlate the
	// generation its forwarded edit returned with the deltas it observes.
	e.Registry.PutDocAt(name, sub.Doc, sub.Gen)
	e.lt.mu.Lock()
	e.lt.leases[name] = l
	e.lt.mu.Unlock()
	e.met.docLeases.Inc()
	e.wg.Add(1)
	go e.pumpLease(ctx, l, sub)
	return true
}

// subscribeUpstream opens the upstream v3 subscription that is the
// lease, bounding only the handshake with the upstream timeout.
func (e *Edge) subscribeUpstream(ctx context.Context, name string) (*transport.DocSubscription, error) {
	hctx, hcancel := context.WithTimeout(ctx, e.upstreamTimeout())
	defer hcancel()
	return e.up.SubscribeDoc(hctx, name)
}

// pumpLease is the invalidation loop: it drains one upstream
// subscription, folding every event into the edge registry — deltas
// re-apply through EditDoc (advancing the edge's own generations and
// fanning out to downstream watchers), snapshots re-register wholesale.
// A gap, an apply failure, a shed or a dead connection re-subscribes and
// re-snapshots in place; only when that fails does the lease end and the
// document leave the registry.
func (e *Edge) pumpLease(ctx context.Context, l *lease, sub *transport.DocSubscription) {
	defer e.wg.Done()
	defer close(l.done)
	resync := func() bool {
		_ = sub.Close()
		if ctx.Err() != nil {
			// Cancelled (expiry or shutdown): whoever cancelled owns the
			// registry state; touching it here would race their DropDoc.
			return false
		}
		next, err := e.subscribeUpstream(ctx, l.name)
		if err != nil {
			if ctx.Err() == nil {
				e.endLease(l, endReasonLeaseLost)
			}
			return false
		}
		sub = next
		l.gen = sub.Gen
		e.Registry.PutDocAt(l.name, sub.Doc, sub.Gen)
		e.met.leaseResyncs.Inc()
		return true
	}
	for {
		ev, err := sub.Recv(ctx)
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled: expiry or shutdown already settled the state.
				_ = sub.Close()
				return
			}
			if !resync() {
				return
			}
			continue
		}
		switch ev.Kind {
		case transport.SubSnapshot:
			l.gen = ev.Gen
			e.Registry.PutDocAt(l.name, ev.Doc, ev.Gen)
		case transport.SubDelta:
			if ev.FromGen != l.gen {
				if !resync() {
					return
				}
				continue
			}
			if len(ev.Records) > 0 {
				gen, err := e.Registry.EditDoc(l.name, ev.Records)
				if err != nil || gen != ev.Gen {
					// The replica failed to re-execute what the origin
					// accepted, or advanced to a different generation:
					// it diverged — rebuild from a snapshot.
					if !resync() {
						return
					}
					continue
				}
			}
			l.gen = ev.Gen
		case transport.SubEnd:
			if !resync() {
				return
			}
		}
	}
}

// endLease moves a lease to stale-then-cold: the table entry goes, the
// document leaves the registry, and downstream watchers are shed with
// reason so they resynchronize (re-driving leaseDoc — which will retry
// upstream afresh).
func (e *Edge) endLease(l *lease, reason string) {
	e.lt.mu.Lock()
	owner := e.lt.leases[l.name] == l
	if owner {
		delete(e.lt.leases, l.name)
	}
	e.lt.mu.Unlock()
	if !owner {
		// A replacement lease already took the name over; dropping the
		// document now would evict the replacement's fresh copy.
		return
	}
	e.Registry.DropDoc(l.name, reason)
	e.met.leasesLost.Inc()
}

// sweepLeases is the TTL loop: every quarter-TTL it releases leases that
// are idle past the TTL and have no downstream watchers. The document
// drops with the lease — cache eviction, not deletion — and the next
// access re-leases.
func (e *Edge) sweepLeases(ctx context.Context) {
	defer e.wg.Done()
	ttl := e.leaseTTL()
	tick := ttl / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-ttl).UnixNano()
		var expired []*lease
		e.lt.mu.Lock()
		for name, l := range e.lt.leases {
			if l.lastUse.Load() < cutoff && e.Registry.SubscribersOf(name) == 0 {
				delete(e.lt.leases, name)
				expired = append(expired, l)
			}
		}
		e.lt.mu.Unlock()
		for _, l := range expired {
			// The pump must be fully gone before the document drops:
			// DropDoc racing a resync's PutDoc would strand an orphan
			// replica that nothing invalidates.
			l.cancel()
			<-l.done
			e.Registry.DropDoc(l.name, endReasonLeaseExpired)
			e.met.leaseExpiries.Inc()
		}
	}
}
