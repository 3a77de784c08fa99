package edge

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
)

// cacheStats is a point-in-time snapshot of a blockCache's counters.
type cacheStats struct {
	Hits, Misses, Evictions int64
	Len, Capacity           int
}

func (c *blockCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.blocks.Evictions(),
		Len:       c.blocks.Len(),
		Capacity:  int(c.blocks.Budget()),
	}
}

// add stores blk under key without counting a lookup.
func (c *blockCache) add(key string, blk *media.Block) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blocks.Add(key, blk)
}

func textBlock(name, body string) *media.Block {
	return media.CaptureText(name, body, "en")
}

// heldLeader starts a getOrFetch of key whose fetch blocks until the
// returned release is called with the block to settle the flight with.
// The leader's own result arrives on led.
func heldLeader(c *blockCache, key string) (release func(*media.Block), led <-chan *media.Block) {
	started := make(chan struct{})
	settle := make(chan *media.Block)
	out := make(chan *media.Block, 1)
	go func() {
		blk, _ := c.getOrFetch(context.Background(), key, func(context.Context) (*media.Block, error) {
			close(started)
			return <-settle, nil
		})
		out <- blk
	}()
	<-started
	return func(b *media.Block) { settle <- b }, out
}

func TestBlockCacheLRUEviction(t *testing.T) {
	c := newBlockCache(2, metrics.NewRegistry())
	c.add("a", textBlock("a", "1"))
	c.add("b", textBlock("b", "2"))
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.add("c", textBlock("c", "3"))
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction; want LRU evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted; want it retained (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing after insert")
	}
	st := c.stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Len != 2 || st.Capacity != 2 {
		t.Errorf("Len/Capacity = %d/%d, want 2/2", st.Len, st.Capacity)
	}
}

// TestBlockCacheSharesBlocks pins the ownership rule at the cache: the
// pointer stored is the pointer every hit returns, and the leader and
// every follower of one flight receive the same block.
func TestBlockCacheSharesBlocks(t *testing.T) {
	c := newBlockCache(4, metrics.NewRegistry())
	a := textBlock("a", "payload")
	c.add("a", a)
	for i := 0; i < 2; i++ {
		if got, ok := c.get("a"); !ok || got != a {
			t.Fatalf("get #%d = %p, %v; want the stored pointer %p", i, got, ok, a)
		}
	}

	release, led := heldLeader(c, "b")
	followed := make(chan *media.Block)
	go func() {
		got, _ := c.getOrFetch(context.Background(), "b", func(context.Context) (*media.Block, error) {
			t.Error("follower ran its own fetch")
			return nil, nil
		})
		followed <- got
	}()
	// The follower has joined once it has been counted (a joined flight is
	// a hit); only then may the leader settle.
	for c.stats().Hits < 3 {
		runtime.Gosched()
	}
	b := textBlock("b", "fetched")
	release(b)
	if got := <-followed; got != b {
		t.Errorf("follower received %p, want the leader's block %p", got, b)
	}
	if got := <-led; got != b {
		t.Errorf("leader received %p, want %p", got, b)
	}
	if got, _ := c.get("b"); got != b {
		t.Errorf("get after settle = %p, want %p", got, b)
	}
}

// TestBlockCacheSingleflight asserts that N concurrent misses on one key
// cost exactly one fetch: the leader fetches, the followers wait, and
// every caller gets the block.
func TestBlockCacheSingleflight(t *testing.T) {
	c := newBlockCache(8, metrics.NewRegistry())
	var fetches atomic.Int64
	release := make(chan struct{})
	fetch := func(context.Context) (*media.Block, error) {
		fetches.Add(1)
		<-release // hold the flight open until every goroutine has started
		return textBlock("hot", "block"), nil
	}

	const waiters = 16
	var started, done sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			blk, err := c.getOrFetch(context.Background(), "hot", fetch)
			if err != nil {
				errs[i] = err
				return
			}
			if string(blk.Payload) != "block" {
				errs[i] = fmt.Errorf("payload = %q", blk.Payload)
			}
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("fetch ran %d times for %d concurrent gets, want 1", n, waiters)
	}
	st := c.stats()
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1 (the leader)", st.Misses)
	}
	if st.Hits != waiters-1 {
		t.Errorf("Hits = %d, want %d (followers and latecomers)", st.Hits, waiters-1)
	}
}

// TestBlockCacheFetchErrorsNotCached asserts a failed fetch is shared with
// concurrent waiters but never cached: the next call fetches again.
func TestBlockCacheFetchErrorsNotCached(t *testing.T) {
	c := newBlockCache(8, metrics.NewRegistry())
	boom := errors.New("wire down")
	calls := 0
	failing := func(context.Context) (*media.Block, error) {
		calls++
		return nil, boom
	}
	if _, err := c.getOrFetch(context.Background(), "k", failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	ok := func(context.Context) (*media.Block, error) {
		calls++
		return textBlock("k", "v"), nil
	}
	blk, err := c.getOrFetch(context.Background(), "k", ok)
	if err != nil || string(blk.Payload) != "v" {
		t.Fatalf("retry = %v, %v", blk, err)
	}
	if calls != 2 {
		t.Errorf("fetch calls = %d, want 2 (error not cached)", calls)
	}
}

// TestBlockCacheFollowerCancellation asserts a waiting follower honours
// its own context while the leader's fetch is stuck.
func TestBlockCacheFollowerCancellation(t *testing.T) {
	c := newBlockCache(8, metrics.NewRegistry())
	release, _ := heldLeader(c, "slow")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.getOrFetch(ctx, "slow", func(context.Context) (*media.Block, error) {
		t.Error("follower must not fetch")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("follower err = %v, want context.Canceled", err)
	}
	release(textBlock("slow", "x"))
}

// TestCacheMetricsMirrorStats pins the accounting contract of the
// cache's instruments: a singleflight-collapsed miss counts once
// (charged to the leader), every collapsed waiter counts as a hit, and
// the registry's view never disagrees with the cache's own.
func TestCacheMetricsMirrorStats(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newBlockCache(2, reg)

	// Leader misses; a second caller collapses onto the flight (a hit —
	// it costs no wire call of its own).
	release, led := heldLeader(c, "a")
	followed := make(chan error, 1)
	go func() {
		b, err := c.getOrFetch(context.Background(), "a", func(context.Context) (*media.Block, error) {
			return nil, errors.New("second caller ran its own fetch instead of collapsing")
		})
		if err == nil && b == nil {
			err = errors.New("collapsed caller got no block")
		}
		followed <- err
	}()
	for c.stats().Hits < 1 {
		runtime.Gosched()
	}
	release(media.NewBlock("a", core.MediumText, []byte("x"), attr.List{}))
	if err := <-followed; err != nil {
		t.Fatal(err)
	}
	if b := <-led; b == nil {
		t.Fatal("leader got no block")
	}

	// A resident lookup is a plain hit.
	if _, ok := c.get("a"); !ok {
		t.Fatal("get(a) missed after settle")
	}

	// Fill past capacity to force an eviction.
	c.add("b", media.NewBlock("b", core.MediumText, []byte("y"), attr.List{}))
	c.add("c", media.NewBlock("c", core.MediumText, []byte("z"), attr.List{}))

	st := c.stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want hits=2 misses=1 evictions=1", st)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cmif_cache_hits_total":      st.Hits,
		"cmif_cache_misses_total":    st.Misses,
		"cmif_cache_evictions_total": st.Evictions,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (stats value)", name, got, want)
		}
	}
}

// TestCacheMetricsConcurrentParity hammers one key from many goroutines
// and checks the invariant survives real concurrency: exactly one miss
// per distinct fetch, everything else hits, and the registry's counters
// match the cache's stats exactly.
func TestCacheMetricsConcurrentParity(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newBlockCache(8, reg)

	const goroutines = 16
	var fetches int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.getOrFetch(context.Background(), "hot", func(context.Context) (*media.Block, error) {
				mu.Lock()
				fetches++
				mu.Unlock()
				return media.NewBlock("hot", core.MediumText, []byte("v"), attr.List{}), nil
			})
			if err != nil {
				t.Errorf("getOrFetch: %v", err)
			}
		}()
	}
	wg.Wait()

	st := c.stats()
	if st.Misses != fetches {
		t.Errorf("misses = %d, fetches = %d; a collapsed miss must count once", st.Misses, fetches)
	}
	if st.Hits+st.Misses != goroutines {
		t.Errorf("hits+misses = %d, want %d lookups accounted", st.Hits+st.Misses, goroutines)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cmif_cache_hits_total"]; got != st.Hits {
		t.Errorf("cmif_cache_hits_total = %d, stats Hits = %d", got, st.Hits)
	}
	if got := snap.Counters["cmif_cache_misses_total"]; got != st.Misses {
		t.Errorf("cmif_cache_misses_total = %d, stats Misses = %d", got, st.Misses)
	}
}
