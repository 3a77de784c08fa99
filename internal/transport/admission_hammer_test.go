package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestAdmissionHammer saturates the admission queue from many
// connections at once and verifies the three overload invariants at the
// heart of graceful degradation: admitted requests complete with bounded
// latency, shed requests get their busy error promptly instead of
// rotting in a queue, and the whole server drains back to its baseline
// goroutine count afterwards.
func TestAdmissionHammer(t *testing.T) {
	baseline := runtime.NumGoroutine()

	_, store := fixture(t)
	reg := NewRegistry(store)
	srv := NewServer(reg)
	srv.Admission = Admission{MaxConcurrent: 2, MaxQueue: 4, MaxWait: 25 * time.Millisecond}
	srv.Metrics = metrics.NewRegistry()
	// A few milliseconds of synthetic work per fetch pins the two slots,
	// so the flood below reliably overflows the four-deep queue.
	srv.testOpDelay = func(op byte) {
		if op == opGetBlk {
			time.Sleep(3 * time.Millisecond)
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const (
		conns   = 8
		perConn = 8
		opsPer  = 25
	)
	var (
		mu       sync.Mutex
		admitted []time.Duration
		busy     []time.Duration
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	clients := make([]*Client, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		c.Timeout = 10 * time.Second
		for g := 0; g < perConn; g++ {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				for n := 0; n < opsPer; n++ {
					start := time.Now()
					_, err := c.GetBlock(ctx, "anchor.vid")
					lat := time.Since(start)
					mu.Lock()
					switch {
					case err == nil:
						admitted = append(admitted, lat)
					case errors.Is(err, ErrBusy):
						busy = append(busy, lat)
					default:
						mu.Unlock()
						errCh <- fmt.Errorf("unexpected error: %w", err)
						return
					}
					mu.Unlock()
				}
			}(c)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if len(admitted) == 0 {
		t.Fatal("flood was never admitted: shedding must degrade service, not deny it")
	}
	if len(busy) == 0 {
		t.Fatalf("flood of %d concurrent requests against a %d-slot/%d-queue server shed nothing",
			conns*perConn, srv.Admission.MaxConcurrent, srv.Admission.MaxQueue)
	}
	// Admitted requests pay at most the queue wait plus a handful of
	// 3 ms service slots plus scheduling noise; shed requests must answer
	// at least as fast. The bounds are deliberately loose for CI boxes —
	// the invariant is "bounded", not "fast".
	if p := quantileDur(admitted, 0.99); p > 2*time.Second {
		t.Errorf("admitted p99 %v not bounded", p)
	}
	if p := quantileDur(busy, 0.99); p > 1*time.Second {
		t.Errorf("shed p99 %v; busy errors must be prompt", p)
	}

	snap := srv.Metrics.Snapshot()
	var sheds int64
	for name, val := range snap.Counters {
		if strings.HasPrefix(name, "cmif_busy_rejections_total") {
			sheds += val
		}
	}
	if sheds != int64(len(busy)) {
		t.Errorf("server counted %d sheds, clients saw %d busy errors", sheds, len(busy))
	}

	for _, c := range clients {
		c.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything the hammer spawned — handler goroutines, per-connection
	// readers and writers, admission waiters — must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// quantileDur returns the q-quantile of the (unsorted) latency sample.
func quantileDur(sample []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}
