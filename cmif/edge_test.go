package cmif

// Edge-tier tests: the cold/warm/disk-warm block matrix, lease-based
// document invalidation (origin edits reach edge replicas; edits
// forwarded through the edge stream back down), lease expiry racing a
// live change stream, and the Fetcher/Chain composition over a client
// dialed to an edge.
// The SIGKILL crash-restart harness lives in edge_crash_test.go.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/units"
)

// startEdge runs an edge over the origin at addr, caching under dir, and
// returns it with its bound downstream address.
func startEdge(t *testing.T, origin, dir string, opts ...EdgeOption) (*Edge, string) {
	t.Helper()
	opts = append([]EdgeOption{WithOrigin(origin), WithCacheDir(dir)}, opts...)
	e, err := NewEdge(opts...)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := e.Listen("127.0.0.1:0")
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, addr
}

// leafPath returns some leaf path of the document, for targeted edits.
func leafPath(t *testing.T, d *Document) string {
	t.Helper()
	var leaf string
	d.doc.Root.Walk(func(n *core.Node) bool {
		if leaf == "" && n.Type.IsLeaf() {
			leaf = n.PathString()
		}
		return leaf == ""
	})
	if leaf == "" {
		t.Fatal("document has no leaves")
	}
	return leaf
}

// TestEdgeBlockMatrix walks a block fetch through every cache state:
// cold (upstream fetch), warm (memory hit, no upstream traffic), and
// disk-warm after a restart with an empty memory tier — byte-identical
// content throughout, and zero origin round trips once warm.
func TestEdgeBlockMatrix(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, store := genDoc(t, 21, 16)
	origin := startLiveServer(t, "live", doc, store)
	cacheDir := t.TempDir()

	e1, addr1 := startEdge(t, origin, cacheDir)
	c1, err := Dial(ctx, addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	names := doc.ExternalFiles()
	if len(names) == 0 {
		t.Fatal("fixture references no external blocks; widen the corpus")
	}

	// Cold: every block crosses to the origin exactly once.
	cold, err := c1.Blocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range cold {
		if b == nil {
			t.Fatalf("cold fetch missed %q", names[i])
		}
		want, ok := store.GetByName(names[i])
		if !ok {
			t.Fatalf("fixture store lost %q", names[i])
		}
		if b.ID != want.ID || !bytes.Equal(b.Payload, want.Payload) {
			t.Fatalf("cold fetch of %q is not byte-identical to the origin", names[i])
		}
	}
	coldRTs := e1.UpstreamRoundTrips()
	if coldRTs == 0 {
		t.Fatal("cold fetches made no upstream round trips")
	}

	// Warm: the same names again cost zero upstream traffic.
	warm, err := c1.Blocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range warm {
		if b == nil || b.ID != cold[i].ID || !bytes.Equal(b.Payload, cold[i].Payload) {
			t.Fatalf("warm fetch of %q diverged from cold", names[i])
		}
	}
	if got := e1.UpstreamRoundTrips(); got != coldRTs {
		t.Fatalf("warm fetches went upstream: %d round trips after warm, %d after cold", got, coldRTs)
	}
	if ds := e1.DiskStats(); ds.Blocks == 0 {
		t.Fatal("disk tier absorbed no blocks")
	}

	// Disk-warm: a fresh edge process (empty memory) on the same cache
	// directory serves the corpus without touching the origin.
	c1.Close()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e2, addr2 := startEdge(t, origin, cacheDir)
	c2, err := Dial(ctx, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	diskWarm, err := c2.Blocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range diskWarm {
		if b == nil || b.ID != cold[i].ID || !bytes.Equal(b.Payload, cold[i].Payload) {
			t.Fatalf("disk-warm fetch of %q is not byte-identical to the cold fetch", names[i])
		}
	}
	if got := e2.UpstreamRoundTrips(); got != 0 {
		t.Fatalf("disk-warm fetches made %d upstream round trips, want 0", got)
	}
}

// TestEdgeHoldsOneOriginConnection pins the edge's upstream to one
// multiplexed connection: after a lease and a cold block fill, the
// origin counts exactly one open connection, and the fill still shows
// as an upstream round trip.
func TestEdgeHoldsOneOriginConnection(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	doc, store := genDoc(t, 71, 8)
	reg := NewMetrics()
	origin := startLiveServer(t, "live", doc, store, WithServerMetrics(reg))
	e, edgeAddr := startEdge(t, origin, t.TempDir())
	ec, err := Dial(ctx, edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	if _, err := ec.OpenDoc(ctx, "live"); err != nil {
		t.Fatal(err)
	}
	if got := e.Leases(); got != 1 {
		t.Fatalf("%d leases after read, want 1", got)
	}
	names := doc.ExternalFiles()
	if len(names) == 0 {
		t.Fatal("fixture references no external blocks; widen the corpus")
	}
	before := e.UpstreamRoundTrips()
	if _, err := ec.Block(ctx, names[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.UpstreamRoundTrips(); got <= before {
		t.Fatalf("cold fill counted no upstream round trip: %d before, %d after", before, got)
	}
	if got := reg.Gauge("cmif_connections_open", "").Value(); got != 1 {
		t.Fatalf("origin holds %d connections from the edge, want 1", got)
	}
}

// TestEdgeDocInvalidation pins the lease freshness contract: a document
// read through an edge is leased, origin-side edits invalidate the edge
// replica through the change stream, edits submitted through the edge
// forward to the origin and stream back down, and the generation a
// forwarded edit returns is observable on an edge subscription.
func TestEdgeDocInvalidation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, store := genDoc(t, 31, 16)
	origin := startLiveServer(t, "live", doc, store)
	e, edgeAddr := startEdge(t, origin, t.TempDir())

	oc, err := Dial(ctx, origin)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	ec, err := Dial(ctx, edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	// First read through the edge leases the document.
	first, err := ec.OpenDoc(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Leases(); got != 1 {
		t.Fatalf("after first read: %d leases, want 1", got)
	}
	leaf := leafPath(t, first)

	// An origin-side edit must reach the edge replica via the lease.
	if _, err := oc.SubmitEdit(ctx, "live", NewEditBatch().SetAttr(leaf, "duration", attr.Quantity(units.MS(777)))); err != nil {
		t.Fatal(err)
	}
	fresh, err := oc.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	want := docBytes(t, fresh)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := ec.OpenDoc(ctx, "live")
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(docBytes(t, got), want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("edge replica never absorbed the origin-side edit")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A subscription through the edge rides its local fan-out hub; an
	// edit forwarded through the edge streams back down to it, at the
	// origin's generation numbers.
	sub, err := ec.Subscribe(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	gen, err := ec.SubmitEdit(ctx, "live", NewEditBatch().SetAttr(leaf, "duration", attr.Quantity(units.MS(888))))
	if err != nil {
		t.Fatalf("edit through the edge: %v", err)
	}
	for sub.Generation() < gen {
		if _, err := sub.Next(ctx); err != nil {
			t.Fatalf("Next at gen %d/%d: %v", sub.Generation(), gen, err)
		}
	}
	if n := sub.Resyncs(); n != 0 {
		t.Errorf("edge subscription needed %d resyncs, want 0", n)
	}
	after, err := oc.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docBytes(t, sub.Document()), docBytes(t, after)) {
		t.Error("edge replica diverged from the origin after a forwarded edit")
	}
}

// TestEdgeLeaseExpiry pins the TTL sweep contract from both sides: an
// idle, unwatched lease is released (and the next access re-leases,
// seeing writes made while cold), while a lease with a live downstream
// subscriber never expires — the change stream keeps flowing through the
// idle period.
func TestEdgeLeaseExpiry(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, store := genDoc(t, 41, 12)
	origin := startLiveServer(t, "live", doc, store)
	e, edgeAddr := startEdge(t, origin, t.TempDir(), WithLeaseTTL(200*time.Millisecond))

	oc, err := Dial(ctx, origin)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	ec, err := Dial(ctx, edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	first, err := ec.OpenDoc(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	leaf := leafPath(t, first)
	if got := e.Leases(); got != 1 {
		t.Fatalf("%d leases after read, want 1", got)
	}

	// A live subscriber pins the lease across many TTLs, and still
	// receives edits made long after the last explicit access.
	sub, err := ec.Subscribe(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2500 * time.Millisecond) // several sweep ticks past the TTL
	if got := e.Leases(); got != 1 {
		t.Fatalf("watched lease expired: %d leases, want 1", got)
	}
	gen, err := oc.SubmitEdit(ctx, "live", NewEditBatch().SetAttr(leaf, "duration", attr.Quantity(units.MS(321))))
	if err != nil {
		t.Fatal(err)
	}
	for sub.Generation() < gen {
		if _, err := sub.Next(ctx); err != nil {
			t.Fatalf("watched subscription broke across the idle period: %v", err)
		}
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}

	// Unwatched and idle, the lease must now be swept.
	deadline := time.Now().Add(10 * time.Second)
	for e.Leases() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle unwatched lease never expired")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Writes made while the edge held nothing are visible on re-lease.
	if _, err := oc.SubmitEdit(ctx, "live", NewEditBatch().SetAttr(leaf, "duration", attr.Quantity(units.MS(654)))); err != nil {
		t.Fatal(err)
	}
	fresh, err := oc.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	relatched, err := ec.OpenDoc(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docBytes(t, relatched), docBytes(t, fresh)) {
		t.Error("re-leased replica does not reflect writes made while cold")
	}
	if got := e.Leases(); got != 1 {
		t.Fatalf("%d leases after re-read, want 1", got)
	}
}

// TestEdgeExpiryChangeStreamRace races the TTL sweeper against a hot
// writer and a polling reader: leases expire and re-establish under a
// continuous delta stream, and whatever interleaving occurs, the edge
// must neither wedge (a lease without a document) nor serve stale bytes
// once the dust settles.
func TestEdgeExpiryChangeStreamRace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, store := genDoc(t, 51, 12)
	origin := startLiveServer(t, "live", doc, store)
	_, edgeAddr := startEdge(t, origin, t.TempDir(), WithLeaseTTL(100*time.Millisecond))

	oc, err := Dial(ctx, origin)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	ec, err := Dial(ctx, edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	first, err := ec.OpenDoc(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	leaf := leafPath(t, first)

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			b := NewEditBatch().SetAttr(leaf, "duration", attr.Quantity(units.MS(int64(100+i))))
			if _, err := oc.SubmitEdit(ctx, "live", b); err != nil {
				writerErr <- err
				return
			}
		}
	}()
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		for {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			if _, err := ec.OpenDoc(ctx, "live"); err != nil {
				readerErr <- fmt.Errorf("read through the edge failed mid-race: %w", err)
				return
			}
		}
	}()
	time.Sleep(3 * time.Second)
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}

	// Settle: the edge must converge on the origin's final bytes.
	fresh, err := oc.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	want := docBytes(t, fresh)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := ec.OpenDoc(ctx, "live")
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(docBytes(t, got), want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("edge never converged on the origin after the race")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestEdgeFetcherChain exercises the API-redesign seam end to end: a
// Pipeline resolves its corpus through a Chain of local store → edge →
// origin, and PrefetchVia works identically over an origin Client, a
// Client dialed to an edge, and the Chain.
func TestEdgeFetcherChain(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, store := genDoc(t, 61, 16)
	origin := startLiveServer(t, "live", doc, store)
	_, edgeAddr := startEdge(t, origin, t.TempDir())
	oc, err := Dial(ctx, origin)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	ec, err := Dial(ctx, edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	var fetchers = []struct {
		name string
		f    Fetcher
	}{
		{"client", oc},
		{"edge", ec},
		{"chain", Chain(StoreFetcher(NewStore()), ec, oc)},
	}
	var want *Store
	for _, tc := range fetchers {
		got, err := PrefetchVia(ctx, tc.f, doc)
		if err != nil {
			t.Fatalf("%s: PrefetchVia: %v", tc.name, err)
		}
		if want == nil {
			want = got
			if want.Len() == 0 {
				t.Fatal("prefetch resolved no blocks")
			}
			continue
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: prefetched %d blocks, client got %d", tc.name, got.Len(), want.Len())
		}
	}

	remote, err := ec.OpenDoc(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPipeline(ctx, remote, WithFetcher(ec),
		WithProfile(Workstation1991),
		WithScreen(Screen{W: 1152, H: 900}),
		WithSpeakers(2),
	); err != nil {
		t.Fatalf("pipeline over the edge fetcher: %v", err)
	}

	// An unsupported layer falls through: a chain whose first layer
	// cannot subscribe still delivers a live subscription from the edge.
	sub, err := Chain(StoreFetcher(NewStore()), ec).Subscribe(ctx, "live")
	if err != nil {
		t.Fatalf("chain subscribe fell through wrong: %v", err)
	}
	sub.Close()

	// A chain of only dead-end layers reports the typed miss.
	if _, err := Chain(StoreFetcher(NewStore())).OpenDoc(ctx, "live"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("store-only chain OpenDoc = %v, want ErrNotFound", err)
	}
}
