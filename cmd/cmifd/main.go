// Command cmifd serves CMIF documents and data blocks over the interchange
// protocol — the stand-in for the distributed document store of the
// paper's section 6. One binary runs every tier of that store; -role
// picks which:
//
//	cmifd [-role origin] [-news N] [-data DIR [-sync POLICY] [-snap-bytes N]]
//	cmifd -role edge -origin HOST:PORT -cache DIR [-cache-bytes N]
//	      [-mem-blocks N] [-upstream-timeout 10s] [-lease-ttl 2m]
//	cmifd -role node -data DIR [-sync POLICY] [-peers HOST:PORT,...]
//	      [-replicas 3] [-gossip-interval 250ms]
//
// Every role also takes the serving flags [-addr 127.0.0.1:7911]
// [-idle 2m] [-grace 5s] [-max-inflight 32] [-compress=false]
// [-metrics ADDR] [-max-concurrent N] [-max-queue N] [-max-wait D]
// [-max-subscribers N] [-sub-queue N]. A flag set for a role that does
// not read it is an error (exit 2).
//
// An origin holds the corpus: -news preloads the evening news under the
// name "news", and -data makes it durable — the corpus recovers from DIR
// on start and every mutation is write-ahead-logged before it is
// acknowledged, so an origin killed even with SIGKILL restarts with its
// exact pre-kill corpus.
//
// An edge is a read-through caching proxy in front of one origin. Blocks
// are immutable under their content address, so it caches them forever
// in a crash-safe disk cache under -cache that survives restarts.
// Documents are leased: the first access subscribes to the origin's
// change stream, and an idle, unwatched lease is released after
// -lease-ttl. Mutations are forwarded to the origin, the single writer.
// Misses, forwards and leases share one multiplexed origin connection.
//
// A node is one member of a replicated, consistent-hash-sharded cluster.
// The first node starts with no -peers; every later one names a live
// node. Writes are journaled through the key's primary and streamed to
// -replicas nodes as the records crash recovery replays, so a killed node
// loses no acknowledged write (-sync always makes that strict). A node
// restarted on its -data directory rejoins, resyncs what it missed, and
// then logs "synced".
//
// Every role speaks wire protocol v4 and bounds its load the same way:
// -max-inflight per connection, -max-concurrent/-max-queue/-max-wait
// server-wide (the excess is shed with a busy error), -max-subscribers
// and -sub-queue for live subscriptions. With -metrics, an HTTP endpoint
// serves the instruments at /metrics (?format=json for JSON) and Go's
// profiler under /debug/pprof/. On SIGINT or SIGTERM cmifd drains:
// in-flight requests get their responses within -grace (0 force-closes
// at once), then the metrics listener drains and the final counter
// totals are logged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/cmif"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// roles are the tiers -role may name. A role-specific flag's usage
// starts with the roles that read it ("edge: ...", "origin, node: ...");
// any other flag is a serving flag every role reads.
var roles = []string{"origin", "edge", "node"}

// readBy reports whether the flag fl applies to role.
func readBy(fl *flag.Flag, role string) bool {
	scope, _, ok := strings.Cut(fl.Usage, ": ")
	if !ok {
		return true
	}
	named := strings.Split(scope, ", ")
	for _, r := range named {
		if !slices.Contains(roles, r) {
			return true // a colon in plain help text, not a role list
		}
	}
	return slices.Contains(named, role)
}

// flags holds every cmifd flag after parsing.
type flags struct {
	role string

	addr, metrics string
	idle, grace   time.Duration
	maxInFlight   int
	compress      bool
	adm           cmif.AdmissionConfig
	subQueue      int

	news      int
	snapBytes int64
	data      string
	sync      cmif.SyncPolicy

	origin, cache   string
	cacheBytes      int64
	memBlocks       int
	upstreamTimeout time.Duration
	leaseTTL        time.Duration

	peers          string
	replicas       int
	gossipInterval time.Duration
}

// register installs every cmifd flag on fs.
func (f *flags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.role, "role", "origin", "tier to run (origin, edge or node)")

	fs.StringVar(&f.addr, "addr", "127.0.0.1:7911", "listen address")
	fs.DurationVar(&f.idle, "idle", 2*time.Minute, "drop connections that deliver no data for this long (0 = never)")
	fs.DurationVar(&f.grace, "grace", 5*time.Second, "shutdown grace period for in-flight requests (0 = force-close at once)")
	fs.IntVar(&f.maxInFlight, "max-inflight", 0, "max pipelined requests per connection (0 = default 32)")
	fs.BoolVar(&f.compress, "compress", true, "offer negotiated per-frame compression to clients")
	fs.StringVar(&f.metrics, "metrics", "", "serve Prometheus/JSON metrics at /metrics and Go profiles at /debug/pprof/ over HTTP at this address (empty disables)")
	fs.IntVar(&f.adm.MaxConcurrent, "max-concurrent", 0, "server-wide admission bound on concurrently executing requests (0 disables admission control)")
	fs.IntVar(&f.adm.MaxQueue, "max-queue", 0, "requests allowed to queue for an admission slot beyond -max-concurrent")
	fs.DurationVar(&f.adm.MaxWait, "max-wait", 0, "longest a queued request may wait before it is shed (0 = default 100ms)")
	fs.IntVar(&f.adm.MaxSubscribers, "max-subscribers", 0, "server-wide bound on live document subscriptions (0 = unlimited)")
	fs.IntVar(&f.subQueue, "sub-queue", 0, "per-subscriber change queue depth before a slow watcher is shed (0 = default 64)")

	fs.IntVar(&f.news, "news", 2, "origin: preload the evening news with N stories (0 disables)")
	fs.Int64Var(&f.snapBytes, "snap-bytes", 0, "origin: snapshot+compact once the WAL grows past this many bytes (0 = default 64 MiB, negative disables)")
	fs.StringVar(&f.data, "data", "", "origin, node: durable data directory to recover from and write-ahead-log every mutation to (origin: empty = in-memory only; node: required)")
	fs.Func("sync", "origin, node: WAL fsync policy with -data: always, interval (the default) or never", func(s string) (err error) {
		f.sync, err = cmif.ParseSyncPolicy(s)
		return err
	})

	fs.StringVar(&f.origin, "origin", "", "edge: upstream origin address (required)")
	fs.StringVar(&f.cache, "cache", "", "edge: disk block cache directory (required)")
	fs.Int64Var(&f.cacheBytes, "cache-bytes", 0, "edge: disk cache budget in payload bytes (0 = default 256 MiB)")
	fs.IntVar(&f.memBlocks, "mem-blocks", 0, "edge: in-memory block cache size fronting the disk tier (0 = default 1024)")
	fs.DurationVar(&f.upstreamTimeout, "upstream-timeout", 0, "edge: per-round-trip bound toward the origin (0 = default 10s)")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", 0, "edge: idle bound before an unwatched document lease is released (0 = default 2m)")

	fs.StringVar(&f.peers, "peers", "", "node: comma-separated addresses of existing cluster nodes (empty bootstraps a fresh cluster)")
	fs.IntVar(&f.replicas, "replicas", 0, "node: nodes each document and block lands on (0 = default 3)")
	fs.DurationVar(&f.gossipInterval, "gossip-interval", 0, "node: membership exchange pace; failure detection scales with it (0 = default 250ms)")
}

// serving returns the serving options every role takes, instrumented
// into reg. A zero admission config, the flags' default, disables
// admission control.
func (f *flags) serving(reg *cmif.Metrics) []cmif.ServingOption {
	return []cmif.ServingOption{
		cmif.WithIdleTimeout(f.idle),
		cmif.WithMaxInFlight(f.maxInFlight),
		cmif.WithServerCompression(f.compress),
		cmif.WithAdmission(f.adm),
		cmif.WithSubscriberQueue(f.subQueue),
		cmif.WithServerMetrics(reg),
	}
}

// run is cmifd: it parses args, starts the tier -role names, serves until
// ctx is cancelled, drains, and returns the exit code — 2 for a command
// line error, 1 for a failure to start or serve. stdout must accept
// concurrent writes (a node reports its catch-up from a goroutine).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmifd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f flags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !slices.Contains(roles, f.role) {
		fmt.Fprintf(stderr, "cmifd: unknown -role %q (want origin, edge or node)\n", f.role)
		return 2
	}
	var misplaced []string
	fs.Visit(func(fl *flag.Flag) {
		if !readBy(fl, f.role) {
			misplaced = append(misplaced, "-"+fl.Name)
		}
	})
	if len(misplaced) > 0 {
		fmt.Fprintf(stderr, "cmifd: %s does not apply to -role %s\n", strings.Join(misplaced, ", "), f.role)
		return 2
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stdout, "cmifd: "+format+"\n", a...) }
	reg := cmif.NewMetrics()
	var (
		t   tier
		err error
		bg  sync.WaitGroup
	)
	switch f.role {
	case "origin":
		t, err = startOrigin(&f, reg, logf)
	case "edge":
		t, err = startEdge(&f, reg, logf)
	case "node":
		t, err = startNode(ctx, &f, reg, logf, &bg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cmifd:", err)
		return 1
	}
	if f.adm.Enabled() {
		logf("admission control: %d concurrent, %d queued, %v max wait", f.adm.MaxConcurrent, f.adm.MaxQueue, f.adm.MaxWait)
	}
	msrv, err := listenMetrics(f.metrics, reg, logf, stderr)
	if err != nil {
		t.Close()
		bg.Wait()
		fmt.Fprintln(stderr, "cmifd: metrics listener:", err)
		return 1
	}
	code := drain(ctx, t, f.grace, msrv, reg, logf, stderr)
	bg.Wait()
	return code
}

// startOrigin builds and binds the origin server.
func startOrigin(f *flags, reg *cmif.Metrics, logf func(string, ...any)) (tier, error) {
	var opts []cmif.ServeOption
	for _, o := range f.serving(reg) {
		opts = append(opts, o)
	}
	if f.data != "" {
		opts = append(opts,
			cmif.WithDataDir(f.data),
			cmif.WithSyncPolicy(f.sync),
			cmif.WithSnapshotThreshold(f.snapBytes),
		)
	}
	if f.news > 0 {
		doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: f.news})
		if err != nil {
			return nil, err
		}
		opts = append(opts,
			cmif.WithServedStore(store),
			cmif.WithServedDocument("news", doc),
		)
	}
	s := cmif.NewServer(opts...)
	bound, err := s.Listen(f.addr)
	if err != nil {
		s.Close()
		return nil, err
	}
	logf("serving %d documents, %d blocks on %s", len(s.DocumentNames()), s.Store().Len(), bound)
	if f.data != "" {
		logf("durable in %s (sync=%s)", f.data, f.sync)
	}
	return s, nil
}

// startEdge builds the edge over its origin and binds it.
func startEdge(f *flags, reg *cmif.Metrics, logf func(string, ...any)) (tier, error) {
	switch {
	case f.origin == "":
		return nil, errors.New("-role edge needs -origin")
	case f.cache == "":
		return nil, errors.New("-role edge needs -cache")
	}
	opts := []cmif.EdgeOption{
		cmif.WithOrigin(f.origin),
		cmif.WithCacheDir(f.cache),
		cmif.WithCacheBytes(f.cacheBytes),
		cmif.WithEdgeMemBlocks(f.memBlocks),
		cmif.WithUpstreamTimeout(f.upstreamTimeout),
		cmif.WithLeaseTTL(f.leaseTTL),
	}
	for _, o := range f.serving(reg) {
		opts = append(opts, o)
	}
	e, err := cmif.NewEdge(opts...)
	if err != nil {
		return nil, err
	}
	bound, err := e.Listen(f.addr)
	if err != nil {
		e.Close()
		return nil, err
	}
	ds := e.DiskStats()
	logf("serving on %s, origin %s", bound, f.origin)
	logf("disk cache %s: %d blocks, %d bytes recovered", f.cache, ds.Blocks, ds.Bytes)
	return e, nil
}

// startNode joins the cluster and reports its catch-up on a goroutine
// that bg covers; the goroutine ends once the node is synced or ctx is
// cancelled.
func startNode(ctx context.Context, f *flags, reg *cmif.Metrics, logf func(string, ...any), bg *sync.WaitGroup) (tier, error) {
	if f.data == "" {
		return nil, errors.New("-role node needs -data")
	}
	opts := []cmif.JoinOption{
		cmif.WithNodeAddr(f.addr),
		cmif.WithDataDir(f.data),
		cmif.WithSyncPolicy(f.sync),
		cmif.WithReplicationFactor(f.replicas),
		cmif.WithGossipInterval(f.gossipInterval),
	}
	for _, p := range strings.Split(f.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			opts = append(opts, cmif.WithClusterPeers(p))
		}
	}
	for _, o := range f.serving(reg) {
		opts = append(opts, o)
	}
	n, err := cmif.JoinCluster(opts...)
	if err != nil {
		return nil, err
	}
	logf("node %s up, durable in %s (sync=%s)", n.Addr(), f.data, f.sync)
	if f.peers != "" {
		logf("joining via %s", f.peers)
	}
	// A rejoining node serves at once, but operators want to know when
	// it is whole again.
	bg.Add(1)
	go func() {
		defer bg.Done()
		if n.WaitSynced(ctx) == nil {
			logf("synced, %d members known", len(n.Members()))
		}
	}()
	return n, nil
}
