// Package daemon factors out the lifecycle scaffolding shared by the
// cmif daemons (cmifd, cmifedge, cmifcluster): the serving flags every
// entrypoint exposes with identical semantics, the optional metrics
// HTTP endpoint, signal-driven graceful drain, and exit classification.
// Each command keeps only what makes it itself — its own flags, its
// constructor, its banner.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// Flags holds the serving knobs every daemon exposes. Register them on
// a FlagSet with Register, parse, then read the fields.
type Flags struct {
	Addr           string
	Idle           time.Duration
	Grace          time.Duration
	MaxInFlight    int
	Metrics        string
	MaxConcurrent  int
	MaxQueue       int
	MaxWait        time.Duration
	MaxSubscribers int
	SubQueue       int
}

// Register installs the shared flags on fs. defaultAddr seeds -addr and
// scope names the admission bound's breadth in help text ("server-wide",
// "edge-wide", "node-wide").
func (f *Flags) Register(fs *flag.FlagSet, defaultAddr, scope string) {
	fs.StringVar(&f.Addr, "addr", defaultAddr, "listen address")
	fs.DurationVar(&f.Idle, "idle", 2*time.Minute, "drop connections that deliver no data for this long (0 = never)")
	fs.DurationVar(&f.Grace, "grace", 5*time.Second, "shutdown grace period for in-flight requests")
	fs.IntVar(&f.MaxInFlight, "max-inflight", 0, "max pipelined requests per connection (0 = default 32)")
	fs.StringVar(&f.Metrics, "metrics", "", "serve Prometheus/JSON metrics at /metrics and Go profiles at /debug/pprof/ over HTTP at this address (empty disables)")
	fs.IntVar(&f.MaxConcurrent, "max-concurrent", 0, scope+" admission bound on concurrently executing requests (0 disables admission control)")
	fs.IntVar(&f.MaxQueue, "max-queue", 0, "requests allowed to queue for an admission slot beyond -max-concurrent")
	fs.DurationVar(&f.MaxWait, "max-wait", 0, "longest a queued request may wait before it is shed (0 = default 100ms)")
	fs.IntVar(&f.MaxSubscribers, "max-subscribers", 0, scope+" bound on live document subscriptions (0 = unlimited)")
	fs.IntVar(&f.SubQueue, "sub-queue", 0, "per-subscriber change queue depth before a slow watcher is shed (0 = default 64)")
}

// Admission converts the admission flags into a transport config,
// reporting whether any bound was requested at all.
func (f *Flags) Admission() (transport.Admission, bool) {
	if f.MaxConcurrent <= 0 && f.MaxSubscribers <= 0 {
		return transport.Admission{}, false
	}
	return transport.Admission{
		MaxConcurrent:  f.MaxConcurrent,
		MaxQueue:       f.MaxQueue,
		MaxWait:        f.MaxWait,
		MaxSubscribers: f.MaxSubscribers,
	}, true
}

// Server is the lifecycle surface Run drives: block serving until the
// context is cancelled, drain, and report how the drain went.
type Server interface {
	Serve(ctx context.Context) error
	Close() error
}

// RunConfig parameterizes Run for one daemon.
type RunConfig struct {
	Name        string            // command name, prefixes every log line
	Grace       time.Duration     // metrics drain bound after the wire listener drains
	MetricsAddr string            // HTTP address for /metrics and /debug/pprof/; empty disables both
	Metrics     *metrics.Registry // instruments to expose and total on exit
}

// SignalContext returns a context cancelled by SIGINT or SIGTERM, plus
// its stop function.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Run drives the daemon to completion: it exposes the metrics endpoint
// (and, on the same listener, net/http/pprof under /debug/pprof/),
// serves until ctx is cancelled, drains the metrics listener only after
// the wire server has drained (a scraper watching the shutdown sees the
// final request totals), prints the counter totals, and classifies the
// outcome into an exit code. The caller has already bound the listener
// and printed its banner; on return, os.Exit with the code.
func Run(ctx context.Context, s Server, cfg RunConfig) int {
	var metricsSrv *http.Server
	if cfg.MetricsAddr != "" && cfg.Metrics != nil {
		ln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			s.Close()
			fmt.Fprintf(os.Stderr, "%s: metrics listener: %v\n", cfg.Name, err)
			return 1
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", cfg.Metrics.Handler())
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
		metricsSrv = &http.Server{Handler: mux}
		fmt.Printf("%s: metrics on http://%s/metrics, profiles on http://%s/debug/pprof/\n", cfg.Name, ln.Addr(), ln.Addr())
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", cfg.Name, err)
			}
		}()
	}

	err := s.Serve(ctx)

	if metricsSrv != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), cfg.Grace)
		if serr := metricsSrv.Shutdown(drainCtx); serr != nil {
			fmt.Fprintf(os.Stderr, "%s: metrics drain: %v\n", cfg.Name, serr)
		}
		cancel()
	}
	if cfg.Metrics != nil {
		for _, line := range cfg.Metrics.CounterTotals() {
			fmt.Printf("%s: final %s\n", cfg.Name, line)
		}
	}

	switch {
	case err == nil:
		fmt.Printf("%s: drained, shutting down\n", cfg.Name)
		return 0
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "%s: grace period expired; remaining connections force-closed\n", cfg.Name)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", cfg.Name, err)
		return 1
	}
}
