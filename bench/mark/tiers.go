package mark

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/cmif"
)

// snapshotThreshold makes author-live complete several snapshot and
// compaction cycles within one measured phase.
const snapshotThreshold = 16 << 20

// dialOptions are every client connection's: no negotiated compression
// (outside this benchmark's first cut), no block or chunk cache, and a
// request timeout so a wedged tier fails the run instead of hanging it.
var dialOptions = []cmif.DialOption{
	cmif.WithCompression(false),
	cmif.WithRequestTimeout(30 * time.Second),
}

// env is one set-up: corpus, running tiers, connected clients and the
// seeded op sources, warmed and ready for a measured phase.
type env struct {
	wl   Workload
	seed uint64
	dir  string
	docs []*corpusDoc

	origin        *cmif.Server
	originAddr    string
	originMetrics *cmif.Metrics
	edge          *cmif.Edge
	edgeMetrics   *cmif.Metrics

	// clients are the two persistent connections of the two client
	// goroutines, dialled to the tier in front of the reader.
	clients [Clients]*cmif.Client
	dialMS  []float64

	views  *ViewSchedule
	nextOp int // first schedule index the measured phase uses

	live *liveSession

	// userBytes counts what acknowledged mutations asked the origin to
	// keep: block payloads, document text and edit records.
	userBytes int64
}

func (e *env) originDir() string { return filepath.Join(e.dir, "origin") }
func (e *env) edgeDir() string   { return filepath.Join(e.dir, "edge") }

// liveDoc is the document the author edits: the workload's first.
func (e *env) liveDoc() *corpusDoc { return e.docs[0] }

// setUp generates the corpus, starts the tiers on loopback TCP, seeds
// the origin over the wire, connects the clients and warms everything
// up. dir must not exist yet; it holds the data and cache directories.
func setUp(ctx context.Context, wl Workload, seed uint64, dir string) (e *env, err error) {
	e = &env{wl: wl, seed: seed, dir: dir}
	defer func() {
		if err != nil {
			e.tearDown()
		}
	}()
	if e.docs, err = generateCorpus(ctx, wl); err != nil {
		return e, err
	}
	if err = os.MkdirAll(e.originDir(), 0o755); err != nil {
		return e, err
	}

	// Every origin is durable with the default SyncInterval policy, so
	// recovery time and disk use are defined on every workload. Reads
	// come from the same in-memory store a plain origin serves from.
	e.originMetrics = cmif.NewMetrics()
	e.origin = cmif.NewServer(
		cmif.WithDataDir(e.originDir()),
		cmif.WithSnapshotThreshold(snapshotThreshold),
		cmif.WithServerCompression(false),
		cmif.WithServerMetrics(e.originMetrics),
	)
	if e.originAddr, err = e.origin.Listen("127.0.0.1:0"); err != nil {
		return e, fmt.Errorf("origin listen: %w", err)
	}
	if err = e.seedOrigin(ctx); err != nil {
		return e, err
	}

	front := e.originAddr
	if wl.Edge {
		blocks := 0
		for _, d := range e.docs {
			blocks += len(d.blockIDs)
		}
		e.edgeMetrics = cmif.NewMetrics()
		e.edge, err = cmif.NewEdge(
			cmif.WithOrigin(e.originAddr),
			cmif.WithCacheDir(e.edgeDir()),
			cmif.WithCacheBytes(1<<30),       // well above the working set
			cmif.WithEdgeMemBlocks(blocks/2), // below it: memory and disk hits both run
			cmif.WithEdgeCompression(false),
			cmif.WithEdgeMetrics(e.edgeMetrics),
		)
		if err != nil {
			return e, fmt.Errorf("edge: %w", err)
		}
		if front, err = e.edge.Listen("127.0.0.1:0"); err != nil {
			return e, fmt.Errorf("edge listen: %w", err)
		}
	}
	for i := range e.clients {
		start := time.Now()
		if e.clients[i], err = cmif.Dial(ctx, front, dialOptions...); err != nil {
			return e, fmt.Errorf("dial %s: %w", front, err)
		}
		e.dialMS = append(e.dialMS, float64(time.Since(start))/float64(time.Millisecond))
	}

	e.views = NewViewSchedule(seed, len(e.docs))
	var warm phaseResult
	if wl.Author {
		if e.live, err = openLiveSession(ctx, e); err != nil {
			return e, err
		}
		warm = e.live.run(ctx, stopRule{rounds: wl.WarmRounds}, nil)
	} else {
		warm = e.runViews(ctx, 0, stopRule{rounds: wl.WarmRounds}, nil)
		e.nextOp = len(warm.ops)
	}
	if warm.firstErr != nil {
		return e, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	runtime.GC()
	debug.FreeOSMemory()
	return e, nil
}

// seedOrigin uploads the corpus through one ordinary client connection.
func (e *env) seedOrigin(ctx context.Context) error {
	c, err := cmif.Dial(ctx, e.originAddr, dialOptions...)
	if err != nil {
		return fmt.Errorf("seed: dial: %w", err)
	}
	defer c.Close()
	for _, d := range e.docs {
		// By name, not by block: two files with equal content share one
		// block in the corpus store, and both names must reach the origin.
		for _, name := range d.store.Names() {
			b, ok := d.store.GetByName(name)
			if !ok {
				return fmt.Errorf("seed: corpus store lost %q", name)
			}
			if b.Name != name {
				b = b.Clone()
				b.Name = name
			}
			id, err := c.PutBlock(ctx, b)
			if err == nil && id != b.ID {
				err = fmt.Errorf("content address %s, want %s", id, b.ID)
			}
			if err != nil {
				return fmt.Errorf("seed: put block %s: %w", name, err)
			}
			e.userBytes += int64(len(b.Payload))
		}
		if err := c.Put(ctx, d.name, d.doc); err != nil {
			return fmt.Errorf("seed: put %s: %w", d.name, err)
		}
		e.userBytes += d.docBytes
	}
	return nil
}

// wireBytes sums traffic over the two client connections.
func (e *env) wireBytes() int64 {
	var n int64
	for _, c := range e.clients {
		if c != nil {
			n += c.BytesSent() + c.BytesReceived()
		}
	}
	return n
}

// closeClients ends the live session and hangs up both connections.
func (e *env) closeClients() {
	if e.live != nil {
		e.live.close()
		e.live = nil
	}
	for i, c := range e.clients {
		if c != nil {
			c.Close()
			e.clients[i] = nil
		}
	}
}

// shutdownTiers drains the edge and then the origin gracefully; the
// origin's log is flushed and closed when it returns.
func (e *env) shutdownTiers() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	if e.edge != nil {
		if err := e.edge.Shutdown(ctx); err != nil {
			first = fmt.Errorf("edge shutdown: %w", err)
		}
		e.edge = nil
	}
	if e.origin != nil {
		if err := e.origin.Shutdown(ctx); err != nil && first == nil {
			first = fmt.Errorf("origin shutdown: %w", err)
		}
		e.origin = nil
	}
	return first
}

// tearDown discards the set-up: connections, tiers and directories.
func (e *env) tearDown() {
	e.closeClients()
	_ = e.shutdownTiers()
	_ = os.RemoveAll(e.dir)
}
