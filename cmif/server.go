package cmif

import (
	"context"
	"time"

	"repro/internal/durable"
	"repro/internal/media"
	"repro/internal/transport"
)

// Server serves documents and data blocks over the interchange protocol —
// the paper's distributed document store (section 6). Build one with
// NewServer, or use the one-call Serve.
type Server struct {
	reg *transport.Registry
	srv *transport.Server
	// grace bounds Serve's wait for in-flight requests after cancellation.
	grace time.Duration
	// log is the durability layer when WithDataDir is in effect.
	log *durable.Log
	// initErr holds a durable-recovery failure; Listen and Serve report
	// it (NewServer keeps its no-error signature).
	initErr error
}

// serverConfig collects the server options.
type serverConfig struct {
	store     *media.Store
	docs      []namedDoc
	grace     time.Duration
	durable   durableConfig
	snapBytes int64
	serve     transport.ServeConfig
}

type namedDoc struct {
	name string
	doc  *Document
}

// ServeOption configures NewServer and Serve. Each constructor has its
// own option interface — ServeOption, EdgeOption, JoinOption — so an
// option that only one tier understands is a compile error anywhere
// else, while a ServingOption or DurableOption satisfies every
// constructor whose tier reads it.
type ServeOption interface{ applyServe(*serverConfig) }

// serveFunc is an option only NewServer understands.
type serveFunc func(*serverConfig)

func (f serveFunc) applyServe(c *serverConfig) { f(c) }

// ServingOption sets one of the serving knobs every tier shares —
// timeouts, pipelining, compression, admission, subscriber queues and
// the metrics registry. It satisfies ServeOption, EdgeOption and
// JoinOption, so a knob is set the same way whichever tier it tunes.
type ServingOption func(*transport.ServeConfig)

func (o ServingOption) applyServe(c *serverConfig) { o(&c.serve) }
func (o ServingOption) applyEdge(c *edgeConfig)    { o(&c.cfg.Serve) }
func (o ServingOption) applyJoin(c *joinConfig)    { o(&c.cfg.Serve) }

// defaultServing is every tier's starting knob set: compression offered,
// everything else at its transport default.
func defaultServing() transport.ServeConfig {
	return transport.ServeConfig{Compression: true}
}

// durableConfig collects the durability knobs an origin and a cluster
// node share.
type durableConfig struct {
	dataDir string
	sync    SyncPolicy
}

// DurableOption sets a durability knob. It satisfies ServeOption and
// JoinOption: an origin and a cluster node journal the same way, and an
// edge, which holds only caches, takes neither.
type DurableOption func(*durableConfig)

func (o DurableOption) applyServe(c *serverConfig) { o(&c.durable) }
func (o DurableOption) applyJoin(c *joinConfig)    { o(&c.durable) }

// WithServedStore backs the server with an existing block store instead of
// an empty one.
func WithServedStore(s *Store) ServeOption {
	return serveFunc(func(c *serverConfig) { c.store = s })
}

// WithServedDocument preloads a copy of d under name, taken now: later
// changes to d do not reach the server.
func WithServedDocument(name string, d *Document) ServeOption {
	d = d.Clone()
	return serveFunc(func(c *serverConfig) { c.docs = append(c.docs, namedDoc{name, d}) })
}

// WithIdleTimeout hangs up connections that sit idle between requests
// longer than d. Zero (the default) keeps them forever.
func WithIdleTimeout(d time.Duration) ServingOption {
	return func(c *transport.ServeConfig) { c.IdleTimeout = d }
}

// WithShutdownGrace bounds how long Serve waits for in-flight requests
// after its context is cancelled before force-closing connections. The
// default is 5 seconds.
func WithShutdownGrace(d time.Duration) ServeOption {
	return serveFunc(func(c *serverConfig) { c.grace = d })
}

// WithMaxInFlight bounds how many requests one connection may have in
// flight at once; requests past the bound are rejected with a
// busy error (ErrBusy). The bound is advertised to clients at connect so
// well-behaved clients queue locally instead of being rejected. Zero (the
// default) means 32.
func WithMaxInFlight(n int) ServingOption {
	return func(c *transport.ServeConfig) { c.MaxInFlight = n }
}

// WithDataDir makes the server or cluster node durable: the corpus
// recovers from dir on start (newest snapshot plus WAL replay) and every
// subsequent mutation — document registrations, block puts, deletes — is
// write-ahead-logged there before it is acknowledged, so a killed server
// restarts with its exact pre-kill corpus. An empty or missing directory
// starts empty. A cluster node requires it; a rejoining node recovers it,
// then resyncs what it missed from a peer. On a server, combine with
// WithServedStore/WithServedDocument to seed a corpus: seed content
// already recovered from dir journals nothing.
func WithDataDir(dir string) DurableOption {
	return func(c *durableConfig) { c.dataDir = dir }
}

// WithSyncPolicy picks when WithDataDir's log fsyncs: SyncAlways before
// every acknowledgement, SyncInterval (the default) on a background tick,
// SyncNever when the OS feels like it. See the SyncPolicy docs for the
// loss windows. SyncAlways gives a cluster node the strict guarantee: an
// acknowledged write survives any single node's death.
func WithSyncPolicy(p SyncPolicy) DurableOption {
	return func(c *durableConfig) { c.sync = p }
}

// WithSnapshotThreshold triggers a background snapshot (and WAL
// compaction) whenever the un-snapshotted log grows past n bytes. Zero
// keeps the 64 MiB default; negative disables automatic snapshots.
func WithSnapshotThreshold(n int64) ServeOption {
	return serveFunc(func(c *serverConfig) { c.snapBytes = n })
}

// WithServerCompression turns negotiated per-frame compression on or
// off (the default is on). When on, clients that also enable it
// (WithCompression on the dial side) receive large compressible
// response frames deflated; other clients and incompressible payloads
// are unaffected frame by frame. Turn it off
// for corpora of pre-compressed media where the codec probe is pure
// overhead. On an edge it covers downstream clients only: the edge's
// origin dials negotiate upstream compression independently.
func WithServerCompression(on bool) ServingOption {
	return func(c *transport.ServeConfig) { c.Compression = on }
}

// WithSubscriberQueue bounds each live subscription's server-side event
// queue to n pending changes. A subscriber whose queue overflows — a
// watcher reading slower than writers write — is shed (its subscription
// ends with reason "sub_slow") rather than allowed to buffer without
// bound; the client resynchronizes by subscribing again. Zero (the
// default) means 64.
func WithSubscriberQueue(n int) ServingOption {
	return func(c *transport.ServeConfig) { c.SubQueueCap = n }
}

// NewServer builds a server from functional options. It does not listen
// yet; call Listen, then Serve (or Close). A WithDataDir recovery failure
// is deferred: it surfaces from Listen (and Serve), keeping NewServer's
// signature.
func NewServer(opts ...ServeOption) *Server {
	cfg := serverConfig{grace: 5 * time.Second, serve: defaultServing()}
	for _, o := range opts {
		o.applyServe(&cfg)
	}
	s := &Server{grace: cfg.grace}
	var reg *transport.Registry
	switch {
	case cfg.durable.dataDir != "":
		log, st, err := durable.Open(cfg.durable.dataDir, durable.Options{
			Sync:          cfg.durable.sync,
			SnapshotBytes: cfg.snapBytes,
		})
		if err != nil {
			s.initErr = err
			reg = transport.NewRegistry(nil)
			break
		}
		s.log = log
		// The journal attaches before the seed store merges in, so seed
		// content already recovered from the directory journals nothing
		// (Store.Put only journals state changes).
		st.Store.SetJournal(log)
		if cfg.store != nil {
			cfg.store.Each(func(b *media.Block) bool {
				st.Store.Put(b)
				return true
			})
			for _, name := range cfg.store.Names() {
				if id, ok := cfg.store.Resolve(name); ok {
					st.Store.RegisterName(name, id)
				}
			}
		}
		reg = transport.NewRegistry(st.Store)
		// Recovered documents preload before the journal attaches — they
		// are already on disk, as the records the log keeps.
		for name, d := range st.Docs {
			reg.PutDoc(name, d)
		}
		reg.Journal = log
		reg.DurabilityErr = log.Err
	default:
		reg = transport.NewRegistry(cfg.store)
	}
	for _, nd := range cfg.docs {
		reg.PutDoc(nd.name, nd.doc.doc)
	}
	if s.log != nil && s.initErr == nil {
		// Journaling the seed corpus may itself have failed (disk full
		// mid-merge); surface it at startup instead of serving a corpus
		// that silently refuses every mutation.
		s.initErr = s.log.Err()
	}
	if s.log != nil && s.initErr != nil {
		// A server that will never Listen must not leak the log's
		// segment handle and sync goroutine.
		s.log.Close()
		s.log = nil
	}
	// Server.Metrics promises a registry even when none was shared.
	if cfg.serve.Metrics == nil {
		cfg.serve.Metrics = NewMetrics()
	}
	if s.log != nil {
		s.log.Instrument(cfg.serve.Metrics)
	}
	s.reg, s.srv = reg, transport.NewServer(reg)
	s.srv.ServeConfig = cfg.serve
	return s
}

// Register adds (or replaces) a copy of d under name while serving:
// later changes to d do not reach the server.
func (s *Server) Register(name string, d *Document) { s.reg.PutDoc(name, d.doc.Clone()) }

// DocumentNames lists the registered document names, sorted.
func (s *Server) DocumentNames() []string { return s.reg.DocNames() }

// Store returns the server's block store.
func (s *Server) Store() *Store { return s.reg.Store }

// Snapshot writes the durable layer's state to a fresh snapshot and
// compacts the log it covers; a no-op without WithDataDir (or while a
// snapshot is already in flight).
func (s *Server) Snapshot() error {
	if s.log == nil {
		return nil
	}
	return s.log.Snapshot()
}

// DurableStats reports write-ahead-log activity; ok is false without
// WithDataDir.
func (s *Server) DurableStats() (stats DurableStats, ok bool) {
	if s.log == nil {
		return DurableStats{}, false
	}
	return s.log.Stats(), true
}

// closeLog shuts the durability layer down (idempotent; nil-safe).
func (s *Server) closeLog() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Listen starts accepting on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	if s.initErr != nil {
		return "", s.initErr
	}
	return s.srv.Listen(addr)
}

// Serve blocks until ctx is cancelled, then shuts down gracefully: the
// listener closes, in-flight requests get their responses, idle
// connections are released, and — after the shutdown grace period —
// stragglers are force-closed. Call after Listen. Returns nil on a clean
// drain; a forced close after the grace expired returns an error matching
// context.DeadlineExceeded, so callers can tell the two apart.
func (s *Server) Serve(ctx context.Context) error {
	if s.initErr != nil {
		return s.initErr
	}
	<-ctx.Done()
	graceCtx, cancel := context.WithTimeout(context.Background(), s.grace)
	defer cancel()
	err := s.srv.Shutdown(graceCtx)
	if cerr := s.closeLog(); err == nil {
		err = cerr
	}
	return err
}

// Shutdown drains the server: no new connections, in-flight requests
// complete, and when ctx expires remaining connections are force-closed.
// With WithDataDir, the durability log is flushed and closed after the
// drain.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if cerr := s.closeLog(); err == nil {
		err = cerr
	}
	return err
}

// Close force-closes the listener and every connection immediately, then
// flushes and closes the durability log if there is one.
func (s *Server) Close() error {
	err := s.srv.Close()
	if cerr := s.closeLog(); err == nil {
		err = cerr
	}
	return err
}

// Serve is the one-call server: listen on addr, serve until ctx is
// cancelled, then drain gracefully. The bound address is reported through
// onListen when non-nil (useful with ":0" addresses).
func Serve(ctx context.Context, addr string, onListen func(boundAddr string, s *Server), opts ...ServeOption) error {
	s := NewServer(opts...)
	bound, err := s.Listen(addr)
	if err != nil {
		// The durability log (if any) is already open and recovering;
		// release it rather than leak its segment handle and sync
		// goroutine to a caller who only sees the bind failure.
		s.Close()
		return err
	}
	if onListen != nil {
		onListen(bound, s)
	}
	return s.Serve(ctx)
}
