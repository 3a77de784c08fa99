package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/media"
)

func textBlock(name, body string) *media.Block {
	return media.CaptureText(name, body, "en")
}

func TestBlockCacheLRUEviction(t *testing.T) {
	c := NewBlockCache(2)
	c.Add("a", textBlock("a", "1"))
	c.Add("b", textBlock("b", "2"))
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Add("c", textBlock("c", "3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted; want it retained (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing after insert")
	}
	st := c.Stats()
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
	c := NewBlockCache(4)
	a := textBlock("a", "payload")
	c.Add("a", a)
	for i := 0; i < 2; i++ {
		if got, ok := c.Get("a"); !ok || got != a {
			t.Fatalf("Get #%d = %p, %v; want the stored pointer %p", i, got, ok, a)
		}
	}

	_, f, leader := c.join("b")
	if !leader {
		t.Fatal("first join(b) did not lead")
	}
	followed := make(chan *media.Block)
	go func() {
		got, _ := c.GetOrFetch(context.Background(), "b", func(context.Context) (*media.Block, error) {
			t.Error("follower ran its own fetch")
			return nil, nil
		})
		followed <- got
	}()
	// The follower has joined once it has been counted (a joined flight is
	// a hit); only then may the leader settle.
	for c.Stats().Hits < 3 {
		runtime.Gosched()
	}
	b := textBlock("b", "fetched")
	c.settle("b", f, b, nil)
	if got := <-followed; got != b {
		t.Errorf("follower received %p, want the leader's block %p", got, b)
	}
	if got, _ := c.Get("b"); got != b {
		t.Errorf("Get after settle = %p, want %p", got, b)
	}
}

// TestBlockCacheSingleflight asserts that N concurrent misses on one key
// cost exactly one fetch: the leader fetches, the followers wait, and
// every caller gets the block.
func TestBlockCacheSingleflight(t *testing.T) {
	c := NewBlockCache(8)
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
			blk, err := c.GetOrFetch(context.Background(), "hot", fetch)
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
	st := c.Stats()
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
	c := NewBlockCache(8)
	boom := errors.New("wire down")
	calls := 0
	failing := func(context.Context) (*media.Block, error) {
		calls++
		return nil, boom
	}
	if _, err := c.GetOrFetch(context.Background(), "k", failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	ok := func(context.Context) (*media.Block, error) {
		calls++
		return textBlock("k", "v"), nil
	}
	blk, err := c.GetOrFetch(context.Background(), "k", ok)
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
	c := NewBlockCache(8)
	stuck := make(chan struct{})
	leaderStarted := make(chan struct{})
	go func() {
		_, _ = c.GetOrFetch(context.Background(), "slow", func(context.Context) (*media.Block, error) {
			close(leaderStarted)
			<-stuck
			return textBlock("slow", "x"), nil
		})
	}()
	<-leaderStarted

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.GetOrFetch(ctx, "slow", func(context.Context) (*media.Block, error) {
		t.Error("follower must not fetch")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("follower err = %v, want context.Canceled", err)
	}
	close(stuck)
}
