package cmif

// Delta-equivalence harness for live documents (wire v3): a replica
// built purely from the server's pushed change records must be
// byte-for-byte identical to the authoritative document, and its
// incrementally rescheduled plan must place every node exactly where a
// from-scratch schedule of a fresh refetch does. The scripts are
// randomized (attribute sets, renames, inserts, moves, deletes) and
// seeded, so a failure names the seed that reproduces it. These tests
// run under -race in CI; the multi-writer case exercises the fan-in
// path concurrently.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/units"
)

// startLiveServer serves one generated document under the given name and
// returns the address to dial.
func startLiveServer(t *testing.T, name string, d *Document, store *Store, opts ...ServeOption) string {
	t.Helper()
	opts = append(opts, WithServedStore(store), WithServedDocument(name, d))
	srv := NewServer(opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// genDoc generates a corpus document for the given seed.
func genDoc(t *testing.T, seed uint64, size int) (*Document, *Store) {
	t.Helper()
	d, store, err := corpus.Generate(corpus.Spec{Shape: corpus.Archive, Seed: seed, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return wrapDocument(d), store
}

// docBytes canonicalizes a document for equality checks.
func docBytes(t *testing.T, d *Document) []byte {
	t.Helper()
	data, err := codec.EncodeBinary(d.doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// planShape flattens a plan into path -> [start, end] over every node of
// its document, so plans over distinct (but structurally identical)
// trees can be compared.
func planShape(p *Plan, d *Document) map[string][2]time.Duration {
	shape := make(map[string][2]time.Duration)
	d.doc.Root.Walk(func(n *core.Node) bool {
		shape[n.PathString()] = [2]time.Duration{p.StartOf(n), p.EndOf(n)}
		return true
	})
	return shape
}

// scriptStep builds one randomized edit batch that is valid against the
// mirror document, applies it to the mirror, and returns it. Steps that
// the edit engine rejects (a move into the node's own subtree, say) are
// skipped by returning nil.
func scriptStep(rng *rand.Rand, mirror *Document, insSeq *int) (*EditBatch, *Document) {
	var leaves, composites []string
	mirror.doc.Root.Walk(func(n *core.Node) bool {
		if n.Type.IsLeaf() {
			leaves = append(leaves, n.PathString())
		} else {
			composites = append(composites, n.PathString())
		}
		return true
	})
	if len(leaves) == 0 {
		return nil, mirror
	}
	b := NewEditBatch()
	leaf := leaves[rng.Intn(len(leaves))]
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // attribute set: the common case
		b.SetAttr(leaf, "duration", attr.Quantity(units.MS(int64(50+rng.Intn(900)))))
	case 4, 5: // rename
		b.Rename(leaf, fmt.Sprintf("ren-%d-%d", *insSeq, rng.Intn(1000)))
		*insSeq++
	case 6, 7: // insert a clone of an existing leaf under a random composite
		src, err := mirror.doc.Root.Resolve(leaf)
		if err != nil {
			return nil, mirror
		}
		child := src.Clone().SetName(fmt.Sprintf("ins-%d", *insSeq))
		*insSeq++
		parent := composites[rng.Intn(len(composites))]
		b.Insert(parent, -1, child)
	case 8: // move a leaf under another composite
		b.Move(leaf, composites[rng.Intn(len(composites))], -1)
	default: // delete, but never drain the document
		if len(leaves) < 4 {
			return nil, mirror
		}
		b.Delete(leaf)
	}
	preview := mirror.Clone()
	if err := b.Apply(preview); err != nil {
		return nil, mirror
	}
	// Renames, moves and deletes can orphan a sync arc's relative path,
	// leaving a document no scheduler accepts. A real editor would reject
	// the edit; the generator skips it.
	if _, err := Schedule(preview); err != nil {
		return nil, mirror
	}
	return b, preview
}

// TestDeltaEquivalenceProperty runs randomized single-writer edit
// scripts and checks, per script, the full equivalence contract: the
// subscriber replica assembled from pushed deltas is byte-identical to
// the writer's mirror AND to a fresh refetch, no resync was ever needed,
// and the incrementally maintained plan matches a from-scratch schedule
// of the refetched document node for node.
func TestDeltaEquivalenceProperty(t *testing.T) {
	const steps = 40
	for _, seed := range []uint64{1, 7, 42, 1991} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			doc, store := genDoc(t, seed, 16)
			addr := startLiveServer(t, "live", doc, store, WithSubscriberQueue(4*steps))
			c, err := Dial(ctx, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			sub, err := c.Subscribe(ctx, "live")
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			rng := rand.New(rand.NewSource(int64(seed)))
			mirror := sub.Document().Clone()
			insSeq := 0
			var lastGen uint64
			applied := 0
			for i := 0; i < steps; i++ {
				b, next := scriptStep(rng, mirror, &insSeq)
				if b == nil {
					continue
				}
				gen, err := c.SubmitEdit(ctx, "live", b)
				if err != nil {
					t.Fatalf("step %d: SubmitEdit: %v", i, err)
				}
				mirror, lastGen = next, gen
				applied++
				// Absorb the push before the next step: a subscription
				// exerts backpressure on its connection, so a watcher
				// that never reads would eventually stall the writer
				// sharing it.
				for sub.Generation() < lastGen {
					if _, err := sub.Next(ctx); err != nil {
						t.Fatalf("step %d: Next at gen %d/%d: %v", i, sub.Generation(), lastGen, err)
					}
				}
			}
			if applied == 0 {
				t.Fatal("script applied no edits; widen the generator")
			}
			if n := sub.Resyncs(); n != 0 {
				t.Errorf("single-writer script needed %d resyncs, want 0", n)
			}

			fresh, err := c.Document(ctx, "live")
			if err != nil {
				t.Fatal(err)
			}
			replicaB, mirrorB, freshB := docBytes(t, sub.Document()), docBytes(t, mirror), docBytes(t, fresh)
			if !bytes.Equal(replicaB, freshB) {
				t.Errorf("replica diverged from the refetched document after %d edits", applied)
			}
			if !bytes.Equal(mirrorB, freshB) {
				t.Errorf("writer mirror diverged from the refetched document after %d edits", applied)
			}

			scratch, err := Schedule(fresh)
			if err != nil {
				t.Fatal(err)
			}
			want, got := planShape(scratch, fresh), planShape(sub.Plan(), sub.Document())
			if len(want) != len(got) {
				t.Fatalf("plans cover %d vs %d nodes", len(got), len(want))
			}
			for path, w := range want {
				g, ok := got[path]
				if !ok {
					t.Fatalf("incremental plan misses %s", path)
				}
				if g != w {
					t.Errorf("%s: incremental [%v, %v] vs scratch [%v, %v]", path, g[0], g[1], w[0], w[1])
				}
			}
		})
	}
}

// TestReplicaChangeLogStaysBounded: a replica absorbs every delta in
// place, and each remove record would hold its detached subtree for as
// long as the change log kept it. After 1,000 insert and delete deltas
// the replica keeps a handful of change records, and its plan, patched
// delta by delta, still equals a cold schedule of the served document.
func TestReplicaChangeLogStaysBounded(t *testing.T) {
	const rounds = 500 // an insert and a delete each
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, store := genDoc(t, 3, 4)
	addr := startLiveServer(t, "live", doc, store)
	c, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	submit := func(b *EditBatch) {
		t.Helper()
		gen, err := c.SubmitEdit(ctx, "live", b)
		if err != nil {
			t.Fatal(err)
		}
		for sub.Generation() < gen {
			if _, err := sub.Next(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("extra-%d", i)
		leaf := NewImm([]byte(name)).SetName(name).SetAttr("duration", attr.Quantity(units.MS(500)))
		submit(NewEditBatch().Insert("/issue-1/articles", 1, leaf))
		submit(NewEditBatch().Delete("/issue-1/articles/" + name))
	}
	if n := sub.Resyncs(); n != 0 {
		t.Fatalf("the replica resynchronized %d times", n)
	}
	if held := len(sub.doc.doc.ChangesSince(0)); held > 4 {
		t.Errorf("after %d deltas the replica's change log holds %d records", 2*rounds, held)
	}

	fresh, err := c.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docBytes(t, sub.Document()), docBytes(t, fresh)) {
		t.Fatal("the replica diverged from the served document")
	}
	cold, err := Schedule(fresh)
	if err != nil {
		t.Fatal(err)
	}
	want, got := planShape(cold, fresh), planShape(sub.Plan(), sub.Document())
	if len(want) != len(got) {
		t.Fatalf("plans cover %d vs %d nodes", len(got), len(want))
	}
	for path, w := range want {
		if g := got[path]; g != w {
			t.Errorf("%s: replica plan [%v, %v] vs cold [%v, %v]", path, g[0], g[1], w[0], w[1])
		}
	}
}

// TestMultiWriterFanIn submits concurrent batches from several writers
// on disjoint leaves while eight subscribers follow along, all
// multiplexed over one connection. The fan-out
// arithmetic is exact: every subscriber applies one delta per accepted
// edit, each continuing the generation before it, none resynchronizes,
// and every replica converges byte for byte on a fresh fetch.
func TestMultiWriterFanIn(t *testing.T) {
	const subscribers, writers, editsPerWriter = 8, 3, 12
	const edits = writers * editsPerWriter
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, store := genDoc(t, 11, 16)
	addr := startLiveServer(t, "live", doc, store, WithSubscriberQueue(4*edits))
	c, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	subs := make([]*Subscription, subscribers)
	for i := range subs {
		if subs[i], err = c.Subscribe(ctx, "live"); err != nil {
			t.Fatal(err)
		}
		defer subs[i].Close()
	}

	var leaves []string
	subs[0].Document().doc.Root.Walk(func(n *core.Node) bool {
		if n.Type.IsLeaf() {
			leaves = append(leaves, n.PathString())
		}
		return true
	})
	if len(leaves) < writers {
		t.Fatalf("fixture has %d leaves, want at least %d", len(leaves), writers)
	}

	// Each drainer follows its push stream while the writers race: a
	// subscription that is never read exerts backpressure on the
	// connection and would stall the writers sharing it. One Next per
	// accepted edit, each advancing the replica's generation; Next
	// resynchronizes rather than apply a delta that does not continue
	// the replica's generation, so with Resyncs() == 0 below the chain
	// was contiguous.
	drained := make(chan error, subscribers)
	for i, sub := range subs {
		go func(i int, sub *Subscription) {
			var stalled error
			for n := 0; n < edits; n++ {
				before := sub.Generation()
				if _, err := sub.Next(ctx); err != nil {
					drained <- fmt.Errorf("subscriber %d delta %d: %w", i, n, err)
					return
				}
				if got := sub.Generation(); got <= before && stalled == nil {
					stalled = fmt.Errorf("subscriber %d delta %d: generation %d → %d did not advance", i, n, before, got)
				}
			}
			drained <- stalled
		}(i, sub)
	}

	var lastGen atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < editsPerWriter; i++ {
				// Disjoint leaves per writer: conflicts here would mean
				// the server misordered non-overlapping batches.
				leaf := leaves[(w+i*writers)%len(leaves)]
				b := NewEditBatch().SetAttr(leaf, "duration", attr.Quantity(units.MS(int64(100+w*10+i))))
				gen, err := c.SubmitEdit(ctx, "live", b)
				if err != nil {
					errs <- fmt.Errorf("writer %d edit %d: %w", w, i, err)
					return
				}
				for {
					cur := lastGen.Load()
					if gen <= cur || lastGen.CompareAndSwap(cur, gen) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for range subs {
		if err := <-drained; err != nil {
			t.Fatalf("drainer: %v", err)
		}
	}
	fresh, err := c.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	want := docBytes(t, fresh)
	for i, sub := range subs {
		if sub.Resyncs() != 0 {
			t.Errorf("subscriber %d resynchronized %d times; a sized queue sheds nothing", i, sub.Resyncs())
		}
		if sub.Generation() != lastGen.Load() {
			t.Errorf("subscriber %d stopped at generation %d, last accepted edit was %d", i, sub.Generation(), lastGen.Load())
		}
		if !bytes.Equal(docBytes(t, sub.Document()), want) {
			t.Errorf("subscriber %d replica diverged from refetch after concurrent writers", i)
		}
	}
}

// TestConflictIsTypedAndAtomic pins the facade's conflict contract: a
// batch whose pre-edit paths a concurrent writer invalidated fails with
// ErrConflict (and ErrRemote), and none of its records apply.
func TestConflictIsTypedAndAtomic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	doc, store := genDoc(t, 3, 12)
	addr := startLiveServer(t, "live", doc, store)
	c, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	base, err := c.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	var leaves []string
	base.doc.Root.Walk(func(n *core.Node) bool {
		if n.Type.IsLeaf() {
			leaves = append(leaves, n.PathString())
		}
		return true
	})
	if len(leaves) < 2 {
		t.Fatal("fixture too small")
	}
	victim, bystander := leaves[0], leaves[1]

	// Writer A deletes the victim; writer B's stale batch touches the
	// bystander first and then the victim — it must reject wholesale.
	if _, err := c.SubmitEdit(ctx, "live", NewEditBatch().Delete(victim)); err != nil {
		t.Fatal(err)
	}
	stale := NewEditBatch().
		SetAttr(bystander, "duration", attr.Quantity(units.MS(777))).
		SetAttr(victim, "duration", attr.Quantity(units.MS(888)))
	_, err = c.SubmitEdit(ctx, "live", stale)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale batch returned %v, want ErrConflict", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Errorf("conflicts are remote rejections; errors.Is(err, ErrRemote) = false")
	}

	after, err := c.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	n, err := after.doc.Root.Resolve(bystander)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := n.Attrs.Get("duration"); ok {
		if q, isQ := v.AsNumber(); isQ && q == units.MS(777) {
			t.Error("conflicted batch partially applied: bystander record landed")
		}
	}
}
