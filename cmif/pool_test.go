package cmif_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/cmif"
)

// startNewsServer serves the built-in evening-news corpus and returns
// its address.
func startNewsServer(t *testing.T, opts ...cmif.ServeOption) string {
	t.Helper()
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts,
		cmif.WithServedStore(store),
		cmif.WithServedDocument("news", doc),
	)
	srv := cmif.NewServer(opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestClientPool drives concurrent traffic through a pooled client: the
// operations spread over the pool's multiplexed connections, and the
// shared cache keeps serving across them.
func TestClientPool(t *testing.T) {
	addr := startNewsServer(t)
	cache := cmif.NewBlockCache(64)
	c, err := cmif.Dial(context.Background(), addr,
		cmif.WithPoolSize(3), cmif.WithSharedCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := c.PoolSize(); got != 3 {
		t.Errorf("PoolSize = %d, want 3", got)
	}

	doc, err := c.Document(context.Background(), "news")
	if err != nil {
		t.Fatal(err)
	}
	names := doc.ExternalFiles()
	if len(names) == 0 {
		t.Fatal("news document references no external files")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := c.Block(context.Background(), names[(i+j)%len(names)]); err != nil {
					errs <- fmt.Errorf("worker %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if c.BytesSent() <= 0 || c.BytesReceived() <= 0 {
		t.Errorf("traffic counters: sent=%d received=%d", c.BytesSent(), c.BytesReceived())
	}
	stats, ok := c.CacheStats()
	if !ok || stats.Hits == 0 {
		t.Errorf("CacheStats = %+v, %v; want hits through the shared cache", stats, ok)
	}
}

// TestDialRefusedHelloIsUnsupported pins the typed failure a client sees
// against a server that does not speak v4: the hello is answered with a
// v1-framed error, and Dial fails with ErrUnsupported.
func TestDialRefusedHelloIsUnsupported(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello := make([]byte, 4+1+2+4+1) // one v1 frame: opHello [maxVersion]
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		text := "unknown op 9"
		resp := []byte{0, 0, 0, byte(1 + 2 + 4 + len(text)), 255, 0, 1, 0, 0, 0, byte(len(text))}
		_, _ = conn.Write(append(resp, text...))
	}()
	c, err := cmif.Dial(context.Background(), l.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial succeeded against a server that refused the hello")
	}
	if !errors.Is(err, cmif.ErrUnsupported) {
		t.Fatalf("Dial error = %v, want ErrUnsupported", err)
	}
}

// TestPooledCancellationSurvives cancels a call on a pooled client
// and verifies the pool keeps serving — the facade-level face of the
// connection-poisoning fix.
func TestPooledCancellationSurvives(t *testing.T) {
	addr := startNewsServer(t)
	c, err := cmif.Dial(context.Background(), addr, cmif.WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Document(ctx, "news"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch = %v, want context.Canceled", err)
	}
	// Every pooled connection must still work.
	for i := 0; i < 4; i++ {
		if _, err := c.Document(context.Background(), "news"); err != nil {
			t.Fatalf("fetch %d after cancellation: %v", i, err)
		}
	}
}
