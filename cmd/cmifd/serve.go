package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/cmif"
)

// tier is what a role runs once its listener is bound: *cmif.Server,
// *cmif.Edge or *cmif.ClusterNode.
type tier interface {
	// Shutdown drains in-flight requests, force-closing what remains
	// when ctx expires.
	Shutdown(ctx context.Context) error
	// Close force-closes everything at once.
	Close() error
}

// listenMetrics binds addr and serves reg at /metrics and Go's profiler
// under /debug/pprof/ on it, returning the HTTP server to drain later.
// An empty addr disables the endpoint (nil server, nil error).
func listenMetrics(addr string, reg *cmif.Metrics, logf func(string, ...any), stderr io.Writer) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	// The profiler rides the metrics listener: same address, same
	// lifetime, so a hot spot can be profiled in a running daemon
	// (go tool pprof http://ADDR/debug/pprof/profile) without a
	// patched binary. Index serves every named profile under its
	// prefix; the other four are not profiles and mount by name.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	logf("metrics on http://%s/metrics, profiles on http://%s/debug/pprof/", ln.Addr(), ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "cmifd: metrics server:", err)
		}
	}()
	return srv, nil
}

// drain waits for ctx and then shuts t down within grace; a zero grace
// hands Shutdown an already expired context, so it force-closes at once.
// The metrics server (nil when disabled) drains only after the wire
// listener, so a scraper watching the shutdown sees the final request
// totals. drain then logs the counter totals and classifies the outcome
// into an exit code.
func drain(ctx context.Context, t tier, grace time.Duration, msrv *http.Server, reg *cmif.Metrics, logf func(string, ...any), stderr io.Writer) int {
	<-ctx.Done()
	graceCtx, cancel := context.WithTimeout(context.Background(), grace)
	err := t.Shutdown(graceCtx)
	cancel()

	if msrv != nil {
		metricsCtx, cancel := context.WithTimeout(context.Background(), grace)
		if serr := msrv.Shutdown(metricsCtx); serr != nil {
			fmt.Fprintln(stderr, "cmifd: metrics drain:", serr)
		}
		cancel()
	}
	for _, line := range reg.CounterTotals() {
		logf("final %s", line)
	}

	switch {
	case err == nil:
		logf("drained, shutting down")
		return 0
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(stderr, "cmifd: grace period expired; remaining connections force-closed")
		return 0
	default:
		fmt.Fprintln(stderr, "cmifd:", err)
		return 1
	}
}
