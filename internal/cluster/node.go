package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Defaults for Config's tunables.
const (
	DefaultGossipInterval = 250 * time.Millisecond
	DefaultPeerTimeout    = 2 * time.Second
)

// Config configures one cluster node.
type Config struct {
	// Addr is the listen address; "127.0.0.1:0" picks a free port. The
	// bound address doubles as the node's cluster identity.
	Addr string
	// DataDir is the node's durable directory (WAL + snapshots);
	// required. A rejoining node recovers it first, then resyncs the
	// writes it missed from a peer.
	DataDir string
	// Peers seeds gossip with other nodes' addresses. The first node of
	// a fresh cluster starts with none; everyone else lists at least one
	// live peer.
	Peers []string
	// Replication is the number of nodes each key lands on (default
	// DefaultReplication). Clusters smaller than Replication replicate
	// to every node.
	Replication int
	// VirtualNodes is the ring's vnode count per node (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// GossipInterval paces membership exchange (default 250ms).
	GossipInterval time.Duration
	// SuspectAfter condemns a peer whose gossip record stops advancing
	// (default 8 gossip intervals). Direct connection failures condemn
	// immediately.
	SuspectAfter time.Duration
	// PeerTimeout bounds every node-to-node RPC (default 2s). A peer
	// that cannot answer within it is treated as dead and failed over.
	PeerTimeout time.Duration

	// Sync is the WAL fsync policy (default SyncInterval; SyncAlways for
	// the strict no-acked-loss guarantee).
	Sync durable.SyncPolicy
	// SnapshotBytes is the auto-snapshot threshold (0 keeps the durable
	// default, negative disables).
	SnapshotBytes int64

	// Serve holds the node's serving knobs. Serve.Metrics, when non-nil,
	// also receives the durable and cluster counters.
	Serve transport.ServeConfig
}

func (c *Config) fillDefaults() {
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = DefaultGossipInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 8 * c.GossipInterval
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = DefaultPeerTimeout
	}
}

// Node is one member of a replicated cluster: a full cmifd-class server
// (durable corpus, live documents, admission control) plus the cluster
// machinery — gossip membership, consistent-hash write routing, WAL-record
// replication and rejoin resync. It is its own server's transport.Backend
// (and transport.PeerOps): the embedded registry answers what this node
// holds, and the methods below override the write paths (route through
// the ring) and the read misses (proxy one hop).
//
// Any node answers any request: reads it cannot serve locally are proxied
// to a replica of the key, writes it does not own are forwarded to the
// key's primary. Losing a node neither loses acknowledged data (each key
// lives on Replication WALs) nor availability (ownership fails over to
// the survivors within a gossip interval).
type Node struct {
	cfg  Config
	addr string

	*transport.Registry
	log  *durable.Log
	srv  *transport.Server
	view *View

	// peers caches one client per member address; a connection-level
	// failure drops the entry so the next use re-dials.
	peerMu sync.Mutex
	peers  map[string]*transport.Client

	// ringMu memoizes the ring for the current alive set.
	ringMu     sync.Mutex
	ringFor    string
	ringCached *Ring

	// replMu serializes this node's primary writes, so each replica sees
	// them in append order.
	replMu sync.Mutex

	// applyMu serializes replica-side applies (live replication, resync
	// chunks) and guards the touched-key set that keeps a stale resync
	// record from regressing a concurrent live write.
	applyMu sync.Mutex
	touched map[string]bool

	// ready closes once Start finishes wiring the node; backend methods
	// wait on it, because the listener accepts before the view exists.
	ready     chan struct{}
	synced    chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup

	mForwarded *metrics.Counter
	mReplRecs  *metrics.Counter
	mResyncRec *metrics.Counter
	mDeaths    *metrics.Counter
	mGossip    *metrics.Counter
	mProxied   *metrics.Counter
}

// Start opens (or recovers) the node's data directory, binds its listener
// — the bound address is the node's identity — and joins gossip with the
// configured peers. A node with peers resyncs the writes it missed in the
// background; WaitSynced blocks until that catch-up completes.
func Start(cfg Config) (*Node, error) {
	cfg.fillDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("cluster: Config.DataDir is required")
	}
	log, st, err := durable.Open(cfg.DataDir, durable.Options{
		Sync:          cfg.Sync,
		SnapshotBytes: cfg.SnapshotBytes,
	})
	if err != nil {
		return nil, err
	}

	// The registry shares the recovered block store. The journal is NOT
	// attached as the store's mutation hook and Journal stays nil: every
	// cluster mutation is framed once and fed through AppendFrames, which
	// journals and applies in one step (a self-journaling state would
	// record everything twice).
	reg := transport.NewRegistry(st.Store)
	for name, d := range st.Docs {
		reg.PutDoc(name, d)
	}
	reg.DurabilityErr = log.Err

	n := &Node{
		Registry: reg,
		cfg:      cfg,
		log:      log,
		peers:    make(map[string]*transport.Client),
		ready:    make(chan struct{}),
		synced:   make(chan struct{}),
		stop:     make(chan struct{}),
	}

	srv := transport.NewServer(n)
	srv.ServeConfig = cfg.Serve
	mreg := cfg.Serve.Metrics
	if mreg != nil {
		log.Instrument(mreg)
	} else {
		mreg = metrics.NewRegistry()
	}
	n.mForwarded = mreg.Counter("cmif_cluster_forwarded_writes_total", "Writes forwarded to a key's primary.")
	n.mReplRecs = mreg.Counter("cmif_cluster_replicated_batches_total", "Replication batches shipped to replicas.")
	n.mResyncRec = mreg.Counter("cmif_cluster_resync_chunks_total", "Resync chunks applied while rejoining.")
	n.mDeaths = mreg.Counter("cmif_cluster_peer_deaths_total", "Peers condemned on direct failure evidence.")
	n.mGossip = mreg.Counter("cmif_cluster_gossip_rounds_total", "Gossip rounds completed.")
	n.mProxied = mreg.Counter("cmif_cluster_proxied_reads_total", "Read misses answered by a replica.")

	addr, err := srv.Listen(cfg.Addr)
	if err != nil {
		log.Close()
		return nil, err
	}
	n.srv = srv
	n.addr = addr
	n.view = NewView(addr, addr, cfg.Peers)
	close(n.ready)

	n.wg.Add(2)
	go n.gossipLoop()
	go n.resyncLoop()
	return n, nil
}

// Addr returns the node's bound address — its cluster identity.
func (n *Node) Addr() string { return n.addr }

// Members returns the node's current membership view.
func (n *Node) Members() []Member { return n.view.Members() }

// Synced reports whether the startup resync has completed.
func (n *Node) Synced() bool {
	select {
	case <-n.synced:
		return true
	default:
		return false
	}
}

// WaitSynced blocks until the startup resync completes (immediately on a
// node without peers) or ctx expires.
func (n *Node) WaitSynced(ctx context.Context) error {
	select {
	case <-n.synced:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DurableStats reports the node's WAL activity.
func (n *Node) DurableStats() durable.Stats { return n.log.Stats() }

// Shutdown drains in-flight requests (bounded by ctx), stops gossip and
// closes the durable log.
func (n *Node) Shutdown(ctx context.Context) error {
	n.stopLoops()
	err := n.srv.Shutdown(ctx)
	if cerr := n.closeShared(); err == nil {
		err = cerr
	}
	return err
}

// Kill force-closes the listener and every connection without draining —
// the in-process stand-in for a killed node (acknowledged writes are
// already in the WAL; under SyncAlways they are on disk too).
func (n *Node) Kill() {
	n.stopLoops()
	_ = n.srv.Close()
	_ = n.closeShared()
}

func (n *Node) stopLoops() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) closeShared() error {
	n.closeOnce.Do(func() {
		n.peerMu.Lock()
		for _, c := range n.peers {
			_ = c.Close()
		}
		n.peers = map[string]*transport.Client{}
		n.peerMu.Unlock()
		n.closeErr = n.log.Close()
	})
	return n.closeErr
}

// ---- membership -----------------------------------------------------

// gossipLoop exchanges views with every alive peer each interval. Small
// clusters gossip all-to-all, so membership converges within a round or
// two; a peer that cannot be reached is condemned immediately (direct
// evidence), one whose record stops advancing is swept after SuspectAfter.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.view.Tick()
		encoded := n.view.Encode()
		for _, m := range n.view.Members() {
			if m.ID == n.view.SelfID() || m.State != StateAlive {
				continue
			}
			c, err := n.peer(m.Addr)
			if err != nil {
				n.condemn(m.ID, m.Addr)
				continue
			}
			ctx, cancel := n.peerCtx()
			resp, err := c.GossipExchange(ctx, encoded)
			cancel()
			if err != nil {
				if isPeerDown(err) {
					n.condemn(m.ID, m.Addr)
				}
				continue
			}
			_, _ = n.view.Merge(resp)
		}
		n.view.SweepStale(n.cfg.SuspectAfter)
		n.mGossip.Inc()
	}
}

// condemn records direct failure evidence for a peer and drops its cached
// connection.
func (n *Node) condemn(id, addr string) {
	if n.view.MarkDead(id) {
		n.mDeaths.Inc()
	}
	if addr != "" {
		n.dropPeer(addr)
	}
}

// isPeerDown classifies an RPC failure: an error the peer itself answered
// (ErrRemote wraps it, including not-found and busy) proves the peer
// alive; anything else — dial refusal, broken connection, timeout — is
// failure evidence.
func isPeerDown(err error) bool {
	return err != nil && !errors.Is(err, transport.ErrRemote)
}

func (n *Node) peerCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), n.cfg.PeerTimeout)
}

// peer returns the cached client for addr, dialing on first use.
func (n *Node) peer(addr string) (*transport.Client, error) {
	n.peerMu.Lock()
	if c, ok := n.peers[addr]; ok {
		n.peerMu.Unlock()
		return c, nil
	}
	n.peerMu.Unlock()
	ctx, cancel := n.peerCtx()
	c, err := transport.DialContext(ctx, addr)
	cancel()
	if err != nil {
		return nil, err
	}
	c.Timeout = n.cfg.PeerTimeout
	n.peerMu.Lock()
	if prev, ok := n.peers[addr]; ok {
		n.peerMu.Unlock()
		_ = c.Close()
		return prev, nil
	}
	n.peers[addr] = c
	n.peerMu.Unlock()
	return c, nil
}

func (n *Node) dropPeer(addr string) {
	n.peerMu.Lock()
	if c, ok := n.peers[addr]; ok {
		delete(n.peers, addr)
		_ = c.Close()
	}
	n.peerMu.Unlock()
}

// ring returns the consistent-hash ring over the current alive set,
// memoized until membership changes.
func (n *Node) ring() *Ring {
	alive := n.view.Alive()
	fp := strings.Join(alive, "\x00")
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	if n.ringCached == nil || n.ringFor != fp {
		n.ringCached = NewRing(alive, n.cfg.VirtualNodes)
		n.ringFor = fp
	}
	return n.ringCached
}

// ---- key scheme ------------------------------------------------------

// DocKey is the ring placement key of a document name. Documents and
// blocks hash into one keyspace with a type prefix, so a document and a
// block sharing a name do not collide. Exported so placement-aware
// clients route a key to the same replicas the nodes do.
func DocKey(name string) string { return "d/" + name }

// BlockKey is the ring placement key of a block name (or content
// address — whichever identifier the block is addressed by).
func BlockKey(name string) string { return "b/" + name }

func docKey(name string) string { return DocKey(name) }
func blkKey(name string) string { return BlockKey(name) }

// blockKey places a block by its registered name when it has one (reads
// resolve names), by content address otherwise.
func blockKey(b *media.Block) string {
	if b.Name != "" {
		return blkKey(b.Name)
	}
	return blkKey(b.ID)
}

// recordKey identifies the state a WAL record touches, for the resync
// race filter. The namespaces are distinct from placement keys on
// purpose: a replicated putblk touches both its block ("B/") and its
// name registration ("n/").
func recordKey(r durable.Record) string {
	switch r.Op {
	case durable.RecPutDoc, durable.RecDelDoc:
		return "d/" + string(r.Fields[0])
	case durable.RecPutBlk, durable.RecDelBlk:
		return "B/" + string(r.Fields[0])
	case durable.RecName:
		return "n/" + string(r.Fields[0])
	default:
		return "D/" + string(r.Fields[0])
	}
}

// ---- write path ------------------------------------------------------

// routeWrite runs a write at its key's primary: locally when this node is
// primary, forwarded otherwise. A forward that fails at the connection
// level condemns the primary and retries against the recomputed ring, up
// to Replication+1 attempts — the failover path a killed primary's keys
// take.
func (n *Node) routeWrite(key string, local func() error, forward func(ctx context.Context, c *transport.Client) error) error {
	var lastErr error
	for attempt := 0; attempt <= n.cfg.Replication; attempt++ {
		r := n.ring()
		if r.Len() == 0 {
			return errors.New("cluster: no alive members")
		}
		primary := r.Primary(key)
		if primary == n.view.SelfID() {
			return local()
		}
		addr := n.view.AliveAddr(primary)
		if addr == "" {
			// Condemned between ring build and here; recompute.
			lastErr = fmt.Errorf("cluster: primary %s not alive", primary)
			continue
		}
		c, err := n.peer(addr)
		if err != nil {
			n.condemn(primary, addr)
			lastErr = err
			continue
		}
		ctx, cancel := n.peerCtx()
		err = forward(ctx, c)
		cancel()
		if err == nil {
			n.mForwarded.Inc()
			return nil
		}
		if !isPeerDown(err) {
			// The primary answered: a semantic rejection (conflict,
			// validation), not a liveness problem.
			return err
		}
		n.condemn(primary, addr)
		lastErr = err
	}
	return fmt.Errorf("cluster: write failed after failover: %w", lastErr)
}

// commitLocal is the primary half of a write: journal + apply the frames
// locally, then ship the identical bytes to every other alive replica of
// the key. replMu serializes the pair, so replicas see this node's writes
// in WAL order.
func (n *Node) commitLocal(key string, frames []byte) error {
	n.replMu.Lock()
	defer n.replMu.Unlock()
	if err := n.applyFrames(frames); err != nil {
		return err
	}
	return n.replicateOut(key, frames)
}

// replicateOut ships frames to the key's other alive replicas,
// synchronously — the write is not acknowledged until every reachable
// replica holds it. A replica that fails at the connection level is
// condemned and skipped (its range has failed over; it will resync on
// rejoin); a replica that answers with a rejection fails the write.
func (n *Node) replicateOut(key string, frames []byte) error {
	self := n.view.SelfID()
	for _, id := range n.ring().ReplicaSet(key, n.cfg.Replication) {
		if id == self {
			continue
		}
		addr := n.view.AliveAddr(id)
		if addr == "" {
			continue
		}
		c, err := n.peer(addr)
		if err != nil {
			n.condemn(id, addr)
			continue
		}
		ctx, cancel := n.peerCtx()
		err = c.Replicate(ctx, frames)
		cancel()
		if err == nil {
			n.mReplRecs.Inc()
			continue
		}
		if isPeerDown(err) {
			n.condemn(id, addr)
			continue
		}
		return fmt.Errorf("cluster: replica %s rejected write: %w", id, err)
	}
	return nil
}

// applyFrames journals and applies a batch, refreshing the serving
// registry for any document it changed. Serialized with resync applies so
// the touched-key bookkeeping cannot miss a write.
func (n *Node) applyFrames(frames []byte) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.noteTouchedLocked(frames)
	return n.applyFramesLocked(frames, true)
}

// applyFramesLocked appends frames through the WAL and mirrors document
// changes into the registry (refreshReg false skips the mirror — the
// edit path already updated the registry through EditDoc).
func (n *Node) applyFramesLocked(frames []byte, refreshReg bool) error {
	if len(frames) == 0 {
		return nil
	}
	putDocs, delDocs, err := n.log.AppendFrames(frames)
	if err != nil {
		return err
	}
	if !refreshReg {
		return nil
	}
	if len(putDocs) > 0 {
		changed := make(map[string]bool, len(putDocs))
		for _, name := range putDocs {
			changed[name] = true
		}
		// Decode errors are impossible here: AppendFrames just validated
		// the identical bytes.
		recs, _ := durable.DecodeFrames(frames)
		for _, r := range recs {
			if r.Op != durable.RecPutDoc || !changed[string(r.Fields[0])] {
				continue
			}
			if d, derr := codec.DecodeBinary(r.Fields[1]); derr == nil {
				n.Registry.PutDoc(string(r.Fields[0]), d)
			}
		}
	}
	for _, name := range delDocs {
		n.DropDoc(name, "cluster: deleted")
	}
	return nil
}

// noteTouchedLocked records the keys a batch touches while a resync is in
// flight, so the resync filter drops its stale copies of them.
func (n *Node) noteTouchedLocked(frames []byte) {
	if n.touched == nil {
		return
	}
	recs, err := durable.DecodeFrames(frames)
	if err != nil {
		return
	}
	for _, r := range recs {
		if len(r.Fields) > 0 {
			n.touched[recordKey(r)] = true
		}
	}
}

// ---- transport.Backend and transport.PeerOps -------------------------

// StoreDoc routes a document registration: inlined payloads are extracted
// and placed as blocks first (each to its own replica set, not this
// node's store), then the document itself is journaled at its primary and
// replicated.
func (n *Node) StoreDoc(name string, d *core.Document) error {
	<-n.ready
	scratch := media.NewStore()
	extracted, err := transport.Extract(d, scratch)
	if err != nil {
		return fmt.Errorf("cluster: extract: %w", err)
	}
	var blkErr error
	scratch.Each(func(b *media.Block) bool {
		if _, err := n.StoreBlock(b); err != nil {
			blkErr = err
			return false
		}
		return true
	})
	if blkErr != nil {
		return blkErr
	}
	data, err := codec.EncodeBinary(extracted)
	if err != nil {
		return fmt.Errorf("cluster: encode %q: %w", name, err)
	}
	key := docKey(name)
	frame := durable.FramePutDoc(name, data)
	return n.routeWrite(key,
		func() error { return n.commitLocal(key, frame) },
		func(ctx context.Context, c *transport.Client) error {
			return c.PutDoc(ctx, name, extracted, transport.EncodingBinary)
		})
}

// StoreBlock routes a block put. The journal frames carry the block and,
// when it is named, the name registration — exactly the records a
// single-node server's journal writes.
func (n *Node) StoreBlock(b *media.Block) (string, error) {
	<-n.ready
	frame, err := durable.FramePutBlock(b)
	if err != nil {
		return "", err
	}
	if b.Name != "" {
		frame = append(frame, durable.FrameRegisterName(b.Name, b.ID)...)
	}
	key := blockKey(b)
	id := b.ID
	err = n.routeWrite(key,
		func() error { return n.commitLocal(key, frame) },
		func(ctx context.Context, c *transport.Client) error {
			rid, ferr := c.PutBlock(ctx, b)
			if ferr == nil {
				id = rid
			}
			return ferr
		})
	if err != nil {
		return "", err
	}
	return id, nil
}

// SubmitEdit routes an edit to the document's primary, which applies it
// against its live registry (the single point where conflicts are
// decided) and replicates the post-edit document as a full-state record
// (change records are not idempotent; replication may deliver one twice).
func (n *Node) SubmitEdit(name string, recs []core.ChangeRecord) (uint64, error) {
	<-n.ready
	key := docKey(name)
	var gen uint64
	err := n.routeWrite(key,
		func() error {
			n.replMu.Lock()
			defer n.replMu.Unlock()
			g, err := n.EditDoc(name, recs)
			if err != nil {
				return err
			}
			gen = g
			doc, ok := n.Registry.GetDoc(name)
			if !ok {
				return fmt.Errorf("cluster: edited document %q vanished", name)
			}
			data, err := codec.EncodeBinary(doc)
			if err != nil {
				return err
			}
			frame := durable.FramePutDoc(name, data)
			n.applyMu.Lock()
			n.noteTouchedLocked(frame)
			err = n.applyFramesLocked(frame, false)
			n.applyMu.Unlock()
			if err != nil {
				return err
			}
			return n.replicateOut(key, frame)
		},
		func(ctx context.Context, c *transport.Client) error {
			g, err := c.SubmitEdit(ctx, name, recs)
			if err != nil {
				return err
			}
			gen = g
			return nil
		})
	if err != nil {
		return 0, err
	}
	return gen, nil
}

// Gossip answers a peer's exchange: merge its view, return ours.
func (n *Node) Gossip(view []byte) ([]byte, error) {
	<-n.ready
	if len(view) > 0 {
		if _, err := n.view.Merge(view); err != nil {
			return nil, err
		}
	}
	return n.view.Encode(), nil
}

// Replicate applies a primary's shipped WAL records — the replica half of
// the write path.
func (n *Node) Replicate(frames []byte) error {
	<-n.ready
	return n.applyFrames(frames)
}

// Resync serves a chunk of this node's state to a rejoining replica.
func (n *Node) Resync(cursor string) ([]byte, string, error) {
	<-n.ready
	return n.log.ResyncChunk(cursor, 0)
}

// GetDoc answers from the local registry and proxies a miss to the key's
// replicas. A node that is itself a replica of the key answers
// authoritatively (its miss IS the answer), which also bounds the proxy
// chain at one hop.
func (n *Node) GetDoc(name string) (*core.Document, bool) {
	if d, ok := n.Registry.GetDoc(name); ok {
		return d, true
	}
	<-n.ready
	doc := proxyRead(n, docKey(name), func(ctx context.Context, c *transport.Client) (*core.Document, error) {
		return c.GetDoc(ctx, name, transport.GetDocOptions{Encoding: transport.EncodingBinary})
	})
	return doc, doc != nil
}

// GetBlock answers from the local store and proxies a miss to the key's
// replicas.
func (n *Node) GetBlock(name string) (*media.Block, bool) {
	if b, ok := n.Registry.GetBlock(name); ok {
		return b, true
	}
	<-n.ready
	b := proxyRead(n, blkKey(name), func(ctx context.Context, c *transport.Client) (*media.Block, error) {
		return c.GetBlock(ctx, name)
	})
	return b, b != nil
}

// proxyRead fetches a key from its other replicas, unless this node is
// one of them (an owner's miss is authoritative — and owners never
// proxying keeps the chain from recursing).
func proxyRead[T any](n *Node, key string, fetch func(ctx context.Context, c *transport.Client) (*T, error)) *T {
	self := n.view.SelfID()
	set := n.ring().ReplicaSet(key, n.cfg.Replication)
	for _, id := range set {
		if id == self {
			return nil
		}
	}
	for _, id := range set {
		addr := n.view.AliveAddr(id)
		if addr == "" {
			continue
		}
		c, err := n.peer(addr)
		if err != nil {
			n.condemn(id, addr)
			continue
		}
		ctx, cancel := n.peerCtx()
		v, err := fetch(ctx, c)
		cancel()
		if err == nil {
			n.mProxied.Inc()
			return v
		}
		if isPeerDown(err) {
			n.condemn(id, addr)
		}
	}
	return nil
}

// ListDocs merges the cluster-wide document listing: local names plus
// each alive peer's local-only listing (local-only, so the fan-out cannot
// recurse). Unreachable peers are skipped — the listing degrades to what
// the reachable cluster holds rather than failing.
func (n *Node) ListDocs(localOnly bool) []string {
	if localOnly {
		return n.DocNames()
	}
	<-n.ready
	seen := make(map[string]bool)
	for _, name := range n.DocNames() {
		seen[name] = true
	}
	self := n.view.SelfID()
	for _, m := range n.view.Members() {
		if m.ID == self || m.State != StateAlive {
			continue
		}
		c, err := n.peer(m.Addr)
		if err != nil {
			n.condemn(m.ID, m.Addr)
			continue
		}
		ctx, cancel := n.peerCtx()
		names, err := c.ListDocsLocal(ctx)
		cancel()
		if err != nil {
			if isPeerDown(err) {
				n.condemn(m.ID, m.Addr)
			}
			continue
		}
		for _, name := range names {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---- rejoin resync ---------------------------------------------------

// resyncLoop catches a (re)joining node up: pull the full keyed walk of a
// peer's state and replay it through AppendFrames (which dedupes, so a
// mostly-caught-up WAL appends only the delta). Writes that arrive live
// during the pull mark their keys touched, and the stale resync copies of
// those keys are filtered out — a resync can only add missing state,
// never regress a newer write. A node with no reachable peers (the
// genesis node) gives up after a few rounds and serves empty.
func (n *Node) resyncLoop() {
	defer n.wg.Done()
	defer close(n.synced)

	n.applyMu.Lock()
	n.touched = make(map[string]bool)
	n.applyMu.Unlock()
	defer func() {
		n.applyMu.Lock()
		n.touched = nil
		n.applyMu.Unlock()
	}()

	unreachableRounds := 0
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		src := n.pickResyncSource()
		if src == "" {
			unreachableRounds++
			if unreachableRounds >= 8 {
				return
			}
			select {
			case <-n.stop:
				return
			case <-time.After(n.cfg.GossipInterval):
			}
			continue
		}
		if n.resyncFrom(src) {
			return
		}
		select {
		case <-n.stop:
			return
		case <-time.After(n.cfg.GossipInterval):
		}
	}
}

// pickResyncSource returns the address of an alive peer, "" if none.
func (n *Node) pickResyncSource() string {
	self := n.view.SelfID()
	for _, m := range n.view.Members() {
		if m.ID == self || m.State != StateAlive {
			continue
		}
		if _, err := n.peer(m.Addr); err != nil {
			n.condemn(m.ID, m.Addr)
			continue
		}
		return m.Addr
	}
	return ""
}

// resyncFrom drains one peer's keyed walk; false aborts the attempt (the
// peer failed mid-walk) and the loop retries from the start — the walk is
// idempotent, so a retry re-verifies rather than re-appends.
func (n *Node) resyncFrom(addr string) bool {
	c, err := n.peer(addr)
	if err != nil {
		return false
	}
	cursor := ""
	for {
		select {
		case <-n.stop:
			return true
		default:
		}
		ctx, cancel := n.peerCtx()
		frames, next, err := c.ResyncPull(ctx, cursor)
		cancel()
		if err != nil {
			if isPeerDown(err) {
				n.dropPeer(addr)
			}
			return false
		}
		n.applyMu.Lock()
		kept, ferr := durable.FilterFrames(frames, func(r durable.Record) bool {
			return !n.touched[recordKey(r)]
		})
		if ferr == nil {
			ferr = n.applyFramesLocked(kept, true)
		}
		n.applyMu.Unlock()
		if ferr != nil {
			return false
		}
		n.mResyncRec.Inc()
		if next == "" {
			return true
		}
		cursor = next
	}
}
