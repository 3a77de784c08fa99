package cmif_test

import (
	"context"
	"errors"
	"testing"

	"repro/cmif"
)

// faultyFetcher is a Fetcher whose every call fails with a fixed error —
// the shape of a tier whose transport is down, as opposed to one that
// merely misses.
type faultyFetcher struct{ err error }

func (f faultyFetcher) OpenDoc(context.Context, string) (*cmif.Document, error) {
	return nil, f.err
}

func (f faultyFetcher) Blocks(_ context.Context, names []string) ([]*cmif.Block, error) {
	return nil, f.err
}

func (f faultyFetcher) Descriptors(context.Context, []string) (map[string]cmif.AttrList, error) {
	return nil, f.err
}

func (f faultyFetcher) Subscribe(context.Context, string, ...cmif.SubscribeOption) (*cmif.Subscription, error) {
	return nil, f.err
}

// missFetcher misses cleanly on everything: ErrNotFound for documents,
// all-nil blocks, empty descriptors, ErrUnsupported for subscriptions.
type missFetcher struct{}

func (missFetcher) OpenDoc(context.Context, string) (*cmif.Document, error) {
	return nil, cmif.ErrNotFound
}

func (missFetcher) Blocks(_ context.Context, names []string) ([]*cmif.Block, error) {
	return make([]*cmif.Block, len(names)), nil
}

func (missFetcher) Descriptors(context.Context, []string) (map[string]cmif.AttrList, error) {
	return map[string]cmif.AttrList{}, nil
}

func (missFetcher) Subscribe(context.Context, string, ...cmif.SubscribeOption) (*cmif.Subscription, error) {
	return nil, cmif.ErrUnsupported
}

// TestChainSurfacesMidChainErrors pins the chain's error contract: a
// tier that fails (not misses) must not be silently absorbed when the
// chain as a whole resolves nothing. A caller who would otherwise retry
// or alert on a down cache tier sees the failure instead of a clean
// "not found".
func TestChainSurfacesMidChainErrors(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("tier 1: connection reset")
	ch := cmif.Chain(faultyFetcher{err: boom}, missFetcher{})

	// OpenDoc: the transport error from tier 1 wins over the clean miss
	// from tier 2.
	if _, err := ch.OpenDoc(ctx, "show"); !errors.Is(err, boom) {
		t.Fatalf("OpenDoc = %v, want the tier-1 transport error", err)
	}
	if _, err := ch.OpenDoc(ctx, "show"); errors.Is(err, cmif.ErrNotFound) {
		t.Fatal("OpenDoc reported a clean miss despite a failed tier")
	}

	// Blocks: nothing resolved anywhere, so the tier-1 error surfaces.
	if _, err := ch.Blocks(ctx, []string{"a.img"}); !errors.Is(err, boom) {
		t.Fatalf("Blocks = %v, want the tier-1 transport error", err)
	}

	// Descriptors: same rule.
	if _, err := ch.Descriptors(ctx, []string{"a.img"}); !errors.Is(err, boom) {
		t.Fatalf("Descriptors = %v, want the tier-1 transport error", err)
	}

	// Subscribe: the real failure beats the ErrUnsupported fallback.
	if _, err := ch.Subscribe(ctx, "show"); !errors.Is(err, boom) {
		t.Fatalf("Subscribe = %v, want the tier-1 transport error", err)
	}
}

// TestChainErrorDoesNotBlockLaterTiers: a dead tier must not take the
// chain down when a later tier can serve the request — partial outage
// degrades to the origin, it does not fail the read.
func TestChainErrorDoesNotBlockLaterTiers(t *testing.T) {
	ctx := context.Background()
	srv := cmif.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Put(ctx, "show", buildDoc(t)); err != nil {
		t.Fatal(err)
	}
	block := cmif.CaptureImage("a.img", 4, 4, 7)
	if _, err := c.PutBlock(ctx, block); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("tier 1: connection reset")
	ch := cmif.Chain(faultyFetcher{err: boom}, c)

	if _, err := ch.OpenDoc(ctx, "show"); err != nil {
		t.Fatalf("OpenDoc through a chain with a dead tier: %v", err)
	}
	blocks, err := ch.Blocks(ctx, []string{"a.img"})
	if err != nil {
		t.Fatalf("Blocks through a chain with a dead tier: %v", err)
	}
	if blocks[0] == nil {
		t.Fatal("later tier's block was dropped")
	}
	descs, err := ch.Descriptors(ctx, []string{"a.img"})
	if err != nil {
		t.Fatalf("Descriptors through a chain with a dead tier: %v", err)
	}
	if _, ok := descs["a.img"]; !ok {
		t.Fatal("later tier's descriptor was dropped")
	}
	sub, err := ch.Subscribe(ctx, "show")
	if err != nil {
		t.Fatalf("Subscribe through a chain with a dead tier: %v", err)
	}
	sub.Close()

	// Partial resolution still wins over the error: tier 2 misses one of
	// two names, and the miss is reported as absence, not failure.
	blocks, err = ch.Blocks(ctx, []string{"a.img", "gone.img"})
	if err != nil {
		t.Fatalf("partially resolvable batch failed: %v", err)
	}
	if blocks[0] == nil || blocks[1] != nil {
		t.Fatalf("partial batch resolved wrong set: %v", blocks)
	}
}

// countingFetcher misses like missFetcher and records the name lists
// its Descriptors calls receive.
type countingFetcher struct {
	missFetcher
	calls [][]string
}

func (f *countingFetcher) Descriptors(_ context.Context, names []string) (map[string]cmif.AttrList, error) {
	f.calls = append(f.calls, names)
	return map[string]cmif.AttrList{}, nil
}

// TestChainDescriptorsStopsWhenResolved: once earlier layers resolve
// every name, later layers are not asked at all — not even with an
// empty list — however often a name repeats in the request.
func TestChainDescriptorsStopsWhenResolved(t *testing.T) {
	store := cmif.NewStore()
	store.Put(cmif.CaptureText("a.txt", "hello", "en"))
	later := &countingFetcher{}
	ch := cmif.Chain(cmif.StoreFetcher(store), later)

	descs, err := ch.Descriptors(context.Background(), []string{"a.txt", "a.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := descs["a.txt"]; !ok || len(descs) != 1 {
		t.Fatalf("Descriptors = %v, want a.txt alone", descs)
	}
	if len(later.calls) != 0 {
		t.Errorf("later layer was asked for %q after the store resolved everything", later.calls)
	}
}
