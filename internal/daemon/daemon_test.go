package daemon

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/metrics"
)

type fakeServer struct {
	err     error
	closed  bool
	serving chan struct{} // closed, when non-nil, once Serve is entered
}

func (f *fakeServer) Serve(ctx context.Context) error {
	if f.serving != nil {
		close(f.serving)
	}
	<-ctx.Done()
	return f.err
}

func (f *fakeServer) Close() error {
	f.closed = true
	return nil
}

func TestFlagsRegisterAndAdmission(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs, "127.0.0.1:7999", "test-wide")
	err := fs.Parse([]string{
		"-addr", "10.0.0.1:80", "-idle", "30s", "-grace", "1s",
		"-max-concurrent", "8", "-max-queue", "16", "-max-wait", "50ms",
		"-max-subscribers", "4", "-sub-queue", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Addr != "10.0.0.1:80" || f.Idle != 30*time.Second || f.Grace != time.Second {
		t.Fatalf("parsed flags = %+v", f)
	}
	adm, ok := f.Admission()
	if !ok {
		t.Fatal("admission bounds requested but not reported")
	}
	if adm.MaxConcurrent != 8 || adm.MaxQueue != 16 || adm.MaxWait != 50*time.Millisecond || adm.MaxSubscribers != 4 {
		t.Fatalf("admission = %+v", adm)
	}

	var off Flags
	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	off.Register(fs2, "x", "test-wide")
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := off.Admission(); ok {
		t.Fatal("admission reported enabled with no bounds set")
	}
}

func TestRunLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Reserve a loopback port for the metrics listener Run binds itself.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	srv := &fakeServer{serving: make(chan struct{})}
	done := make(chan int, 1)
	go func() {
		done <- Run(ctx, srv, RunConfig{Name: "testd", Grace: time.Second, MetricsAddr: addr, Metrics: reg})
	}()
	select {
	case <-srv.serving: // the metrics listener is bound before Serve
	case code := <-done:
		t.Fatalf("Run exited %d before serving", code)
	case <-time.After(5 * time.Second):
		t.Fatal("Run never reached Serve")
	}
	// One listener answers both the metrics and the profiler routes.
	for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("clean drain exited %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestRunClassifiesOutcomes(t *testing.T) {
	reg := metrics.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// An expired grace period is an orderly (if noisy) shutdown.
	if code := Run(ctx, &fakeServer{err: context.DeadlineExceeded}, RunConfig{Name: "testd", Metrics: reg}); code != 0 {
		t.Fatalf("grace expiry exited %d, want 0", code)
	}
	// Any other serve error is a failure.
	if code := Run(ctx, &fakeServer{err: errors.New("bind lost")}, RunConfig{Name: "testd", Metrics: reg}); code != 1 {
		t.Fatalf("serve error exited %d, want 1", code)
	}
}
