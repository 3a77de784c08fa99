package cmif

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// This file is the facade over the cluster tier (internal/cluster):
// JoinCluster runs a node in-process, ClusterClient consumes a cluster of
// nodes through the same Fetcher surface every other tier speaks —
// RunPipeline, PrefetchVia, Chain and the cmd/ tools work against a cluster
// exactly as they work against a single server or an edge cache.

// ClusterMember is one node's gossiped membership record.
type ClusterMember = cluster.Member

// ---- serving: JoinCluster -------------------------------------------

// joinConfig collects the join options.
type joinConfig struct {
	cfg     cluster.Config
	durable durableConfig
}

// JoinOption configures JoinCluster. The node-only options below satisfy
// nothing else, so passing one to NewServer or NewEdge is a compile
// error; the shared serving knobs (ServingOption) and the durability
// knobs (DurableOption) satisfy it too. WithDataDir is required.
type JoinOption interface{ applyJoin(*joinConfig) }

// joinFunc is an option only JoinCluster understands.
type joinFunc func(*joinConfig)

func (f joinFunc) applyJoin(c *joinConfig) { f(c) }

// WithNodeAddr sets the node's listen address (default "127.0.0.1:0").
// The bound address is the node's cluster identity.
func WithNodeAddr(addr string) JoinOption {
	return joinFunc(func(c *joinConfig) { c.cfg.Addr = addr })
}

// WithClusterPeers seeds gossip with other nodes' addresses. The first
// node of a fresh cluster starts with none; every later node lists at
// least one live peer.
func WithClusterPeers(addrs ...string) JoinOption {
	return joinFunc(func(c *joinConfig) { c.cfg.Peers = append(c.cfg.Peers, addrs...) })
}

// WithReplicationFactor sets how many nodes each document and block
// lands on (default 3). Clusters smaller than the factor replicate to
// every node.
func WithReplicationFactor(r int) JoinOption {
	return joinFunc(func(c *joinConfig) { c.cfg.Replication = r })
}

// WithGossipInterval paces membership exchange (default 250ms); failure
// detection and failover latency scale with it.
func WithGossipInterval(d time.Duration) JoinOption {
	return joinFunc(func(c *joinConfig) { c.cfg.GossipInterval = d })
}

// ClusterNode is one serving member of a cluster, run in-process. It is
// a full server — durable corpus, live documents, admission control —
// plus gossip membership, consistent-hash write routing and synchronous
// WAL-record replication. Clients (plain Client, Edge, ClusterClient,
// the cmd/ tools) connect to any node's Addr and see the whole corpus.
type ClusterNode struct {
	n *cluster.Node
}

// JoinCluster starts a cluster node: recover the data directory, bind
// the listener, join gossip with the configured peers and catch up on
// missed writes in the background (WaitSynced observes the catch-up).
func JoinCluster(opts ...JoinOption) (*ClusterNode, error) {
	cfg := joinConfig{cfg: cluster.Config{Addr: "127.0.0.1:0", Serve: defaultServing()}}
	for _, o := range opts {
		o.applyJoin(&cfg)
	}
	cfg.cfg.DataDir, cfg.cfg.Sync = cfg.durable.dataDir, cfg.durable.sync
	n, err := cluster.Start(cfg.cfg)
	if err != nil {
		return nil, err
	}
	return &ClusterNode{n: n}, nil
}

// Addr returns the node's bound address — its cluster identity.
func (cn *ClusterNode) Addr() string { return cn.n.Addr() }

// Members returns the node's current membership view.
func (cn *ClusterNode) Members() []ClusterMember { return cn.n.Members() }

// Synced reports whether the startup resync has completed.
func (cn *ClusterNode) Synced() bool { return cn.n.Synced() }

// WaitSynced blocks until the startup resync completes or ctx expires.
func (cn *ClusterNode) WaitSynced(ctx context.Context) error { return cn.n.WaitSynced(ctx) }

// DurableStats reports the node's write-ahead-log activity.
func (cn *ClusterNode) DurableStats() DurableStats { return cn.n.DurableStats() }

// Shutdown drains in-flight requests (bounded by ctx), leaves gossip and
// closes the durable log.
func (cn *ClusterNode) Shutdown(ctx context.Context) error { return cn.n.Shutdown(ctx) }

// Close force-closes the node without draining — the programmatic
// equivalent of killing it. Acknowledged writes are already journaled.
func (cn *ClusterNode) Close() error {
	cn.n.Kill()
	return nil
}

// ---- consuming: ClusterClient ---------------------------------------

// membershipRefresh is how often a ClusterClient re-pulls the membership
// view from a node. Failures refresh immediately regardless.
const membershipRefresh = 2 * time.Second

// ClusterClient consumes a whole cluster through one handle: it tracks
// membership by gossiping with the nodes, routes each request to a
// replica of the key it touches, and fails over to the next replica when
// a node dies mid-conversation. It implements Fetcher, so pipelines,
// prefetch, chains and the cmd/ tools run against a cluster unchanged.
type ClusterClient struct {
	seeds []string

	mu        sync.Mutex
	members   []ClusterMember // alive members, sorted by ID
	clients   map[string]*Client
	refreshed time.Time
	rr        int
}

// DialCluster connects to a cluster via one or more seed node addresses
// and discovers the full membership from whichever answers first.
func DialCluster(ctx context.Context, seeds []string) (*ClusterClient, error) {
	if len(seeds) == 0 {
		return nil, errors.New("cmif: DialCluster needs at least one seed address")
	}
	cc := &ClusterClient{
		seeds:   append([]string(nil), seeds...),
		clients: make(map[string]*Client),
	}
	if err := cc.refreshMembership(ctx); err != nil {
		return nil, err
	}
	return cc, nil
}

// refreshMembership pulls the gossip view from the first reachable node
// (known members first, then the seeds) over its pooled client and keeps
// its alive records. A node that fails at the connection level loses its
// pooled client, so the next request dials it afresh.
func (cc *ClusterClient) refreshMembership(ctx context.Context) error {
	cc.mu.Lock()
	candidates := make([]string, 0, len(cc.members)+len(cc.seeds))
	seen := make(map[string]bool)
	for _, m := range cc.members {
		if !seen[m.Addr] {
			candidates = append(candidates, m.Addr)
			seen[m.Addr] = true
		}
	}
	for _, s := range cc.seeds {
		if !seen[s] {
			candidates = append(candidates, s)
			seen[s] = true
		}
	}
	cc.mu.Unlock()

	var lastErr error
	for _, addr := range candidates {
		c, err := cc.client(ctx, addr)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := c.tc.GossipExchange(ctx, nil)
		if err != nil {
			if err = wireError(err); !errors.Is(err, ErrRemote) {
				cc.mu.Lock()
				cc.dropClient(addr)
				cc.mu.Unlock()
			}
			lastErr = err
			continue
		}
		view, err := cluster.DecodeMembers(data)
		if err != nil {
			lastErr = err
			continue
		}
		alive := view[:0]
		for _, m := range view {
			if m.State == cluster.StateAlive {
				alive = append(alive, m)
			}
		}
		if len(alive) == 0 {
			lastErr = fmt.Errorf("cmif: node %s reports no alive members", addr)
			continue
		}
		cc.mu.Lock()
		cc.members = append([]ClusterMember(nil), alive...)
		cc.refreshed = time.Now()
		cc.mu.Unlock()
		return nil
	}
	return fmt.Errorf("cmif: no cluster node reachable: %w", lastErr)
}

// Members returns the client's current view of the alive membership.
func (cc *ClusterClient) Members() []ClusterMember {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return append([]ClusterMember(nil), cc.members...)
}

// Close closes every node connection.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var first error
	for _, c := range cc.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	cc.clients = make(map[string]*Client)
	cc.members = nil
	return first
}

// candidates orders node addresses for one request: the key's replicas
// first (placement-aware), then every other alive member as fallback.
// With an empty key the order is a rotating round-robin.
func (cc *ClusterClient) candidates(ctx context.Context, key string) ([]string, error) {
	cc.mu.Lock()
	stale := time.Since(cc.refreshed) > membershipRefresh || len(cc.members) == 0
	cc.mu.Unlock()
	if stale {
		if err := cc.refreshMembership(ctx); err != nil {
			return nil, err
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.members) == 0 {
		return nil, errors.New("cmif: no alive cluster members")
	}
	addrOf := make(map[string]string, len(cc.members))
	ids := make([]string, 0, len(cc.members))
	for _, m := range cc.members {
		addrOf[m.ID] = m.Addr
		ids = append(ids, m.ID)
	}
	var order []string
	if key != "" {
		// Placement assumes the default replication factor. Against a
		// cluster run with another one this is never wrong, only a proxy
		// hop slower: every node answers every request.
		ring := cluster.NewRing(ids, 0)
		order = ring.ReplicaSet(key, cluster.DefaultReplication)
	}
	inOrder := make(map[string]bool, len(order))
	for _, id := range order {
		inOrder[id] = true
	}
	rot := cc.rr
	cc.rr++
	for i := range ids {
		id := ids[(rot+i)%len(ids)]
		if !inOrder[id] {
			order = append(order, id)
		}
	}
	addrs := make([]string, len(order))
	for i, id := range order {
		addrs[i] = addrOf[id]
	}
	return addrs, nil
}

// client returns (dialing on first use) the pooled client for addr.
func (cc *ClusterClient) client(ctx context.Context, addr string) (*Client, error) {
	cc.mu.Lock()
	if c, ok := cc.clients[addr]; ok {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()
	c, err := Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if prev, ok := cc.clients[addr]; ok {
		cc.mu.Unlock()
		c.Close()
		return prev, nil
	}
	cc.clients[addr] = c
	cc.mu.Unlock()
	return c, nil
}

// dropClient closes and forgets addr's pooled client. cc.mu is held.
func (cc *ClusterClient) dropClient(addr string) {
	if c, ok := cc.clients[addr]; ok {
		delete(cc.clients, addr)
		go c.Close()
	}
}

// dropNode forgets a node that failed at the connection level: its
// client closes and its member record is removed until the next
// membership refresh re-discovers it (or not).
func (cc *ClusterClient) dropNode(addr string) {
	cc.mu.Lock()
	cc.dropClient(addr)
	kept := cc.members[:0]
	for _, m := range cc.members {
		if m.Addr != addr {
			kept = append(kept, m)
		}
	}
	cc.members = kept
	// Force a refresh on the next request, so a transient blip does not
	// shrink the view for a whole refresh interval.
	cc.refreshed = time.Time{}
	cc.mu.Unlock()
}

// do runs op against the key's candidate nodes in order, failing over on
// connection-level errors. An error the node itself answered (ErrRemote
// wraps it: busy, conflict) is authoritative and returns immediately — a
// dead node never produces one. Not-found is the one exception: a node
// that rejoined mid-churn can be missing a write that raced its resync
// window (the write was acked by a primary whose gossip view did not yet
// include it), so one replica's not-found does not speak for the
// cluster. The remaining candidates are tried, and not-found is returned
// only once every one of them agrees — a genuinely absent key costs a
// membership-wide walk, a present one is found wherever it lives.
func (cc *ClusterClient) do(ctx context.Context, key string, op func(c *Client) error) error {
	addrs, err := cc.candidates(ctx, key)
	if err != nil {
		return err
	}
	var lastErr, notFound error
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := cc.client(ctx, addr)
		if err != nil {
			cc.dropNode(addr)
			lastErr = err
			continue
		}
		err = op(c)
		if err != nil && errors.Is(err, ErrNotFound) {
			notFound = err
			continue
		}
		if err == nil || errors.Is(err, ErrRemote) {
			return err
		}
		cc.dropNode(addr)
		lastErr = err
	}
	if notFound != nil {
		return notFound
	}
	if lastErr == nil {
		lastErr = errors.New("cmif: no alive cluster members")
	}
	return fmt.Errorf("cmif: cluster request failed on every replica: %w", lastErr)
}

// ---- the Fetcher surface (plus writes) -------------------------------

// OpenDoc fetches the document registered under name from a replica.
func (cc *ClusterClient) OpenDoc(ctx context.Context, name string) (*Document, error) {
	var d *Document
	err := cc.do(ctx, cluster.DocKey(name), func(c *Client) error {
		var oerr error
		d, oerr = c.OpenDoc(ctx, name)
		return oerr
	})
	return d, err
}

// Blocks fetches many blocks at once. Any node answers the whole batch
// (foreign names are proxied node-side), so one round trip suffices
// regardless of placement.
func (cc *ClusterClient) Blocks(ctx context.Context, names []string) ([]*Block, error) {
	var blocks []*Block
	key := ""
	if len(names) == 1 {
		key = cluster.BlockKey(names[0])
	}
	err := cc.do(ctx, key, func(c *Client) error {
		var berr error
		blocks, berr = c.Blocks(ctx, names)
		return berr
	})
	return blocks, err
}

// Descriptors fetches the attribute lists of the named blocks.
func (cc *ClusterClient) Descriptors(ctx context.Context, names []string) (map[string]AttrList, error) {
	var descs map[string]AttrList
	err := cc.do(ctx, "", func(c *Client) error {
		var derr error
		descs, derr = c.Descriptors(ctx, names)
		return derr
	})
	return descs, err
}

// Subscribe opens a live replica of the document, served by one of the
// key's cluster replicas.
func (cc *ClusterClient) Subscribe(ctx context.Context, name string, opts ...SubscribeOption) (*Subscription, error) {
	var sub *Subscription
	err := cc.do(ctx, cluster.DocKey(name), func(c *Client) error {
		var serr error
		sub, serr = c.Subscribe(ctx, name, opts...)
		return serr
	})
	return sub, err
}

// Put registers a document cluster-wide: the receiving node journals it
// at the key's primary and replicates before acknowledging.
func (cc *ClusterClient) Put(ctx context.Context, name string, d *Document) error {
	return cc.do(ctx, cluster.DocKey(name), func(c *Client) error {
		return c.Put(ctx, name, d)
	})
}

// PutBlock stores a block cluster-wide, returning its content address.
func (cc *ClusterClient) PutBlock(ctx context.Context, b *Block) (string, error) {
	key := cluster.BlockKey(b.ID)
	if b.Name != "" {
		key = cluster.BlockKey(b.Name)
	}
	var id string
	err := cc.do(ctx, key, func(c *Client) error {
		var perr error
		id, perr = c.PutBlock(ctx, b)
		return perr
	})
	return id, err
}

// SubmitEdit submits an edit batch against a clustered document; the
// receiving node applies it at the document's primary. Conflicts
// classify as ErrConflict exactly as against a single server.
func (cc *ClusterClient) SubmitEdit(ctx context.Context, name string, b *EditBatch) (uint64, error) {
	var gen uint64
	err := cc.do(ctx, cluster.DocKey(name), func(c *Client) error {
		var serr error
		gen, serr = c.SubmitEdit(ctx, name, b)
		return serr
	})
	return gen, err
}

// List returns the names of every document the cluster holds, sorted —
// each node merges its peers' listings.
func (cc *ClusterClient) List(ctx context.Context) ([]string, error) {
	var names []string
	err := cc.do(ctx, "", func(c *Client) error {
		var lerr error
		names, lerr = c.List(ctx)
		return lerr
	})
	return names, err
}

// ClusterClient implements Fetcher.
var _ Fetcher = (*ClusterClient)(nil)
