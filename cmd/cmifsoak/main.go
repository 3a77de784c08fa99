// Command cmifsoak drives the S5 production-soak scenario: it loads a
// generated corpus into a live cmifd, runs a steady mixed workload
// (block reads, batched fetches, queries, edits) for -seconds, floods
// the server with -overload-conns connections to force admission-control
// shedding, scrapes the daemon's /metrics endpoint, writes the combined
// report to -out and gates it (experiments.CheckSoakReport), exiting
// nonzero on any violation.
//
// Usage:
//
//	cmifsoak [-addr HOST:PORT -metrics-url URL] [-seconds 60]
//	         [-overload-seconds 5] [-workers 4] [-overload-conns 8]
//	         [-seed 1] [-rounds 2] [-out SOAK.json] [-smoke]
//
// With no -addr, cmifsoak self-serves: it starts an in-process server
// with admission control (-max-concurrent/-max-queue/-max-wait) and a
// metrics listener on loopback, soaks it, and tears it down. Point
// -addr and -metrics-url at an external cmifd to soak a real deployment
// — start that daemon with -max-concurrent set, or the overload phase
// has nothing to shed and the gate fails.
//
// -smoke shrinks the run to a CI-sized quick pass.
//
// With -cluster SEED[,SEED...] cmifsoak instead runs the cluster churn
// soak (see cluster.go and scripts/cluster_soak.sh): a ClusterClient
// workload of acknowledged writes and verified reads, followed by a
// zero-loss audit that re-fetches every acknowledged write. -seconds,
// -workers, -out (default SOAK_cluster.json) and -smoke apply; the S5
// flags do not.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmif"
	"repro/internal/experiments"
)

func main() {
	cluster := flag.String("cluster", "", "comma-separated cmifcluster seed addresses: run the churn soak (zero-loss audit) instead of S5")
	addr := flag.String("addr", "", "daemon address to soak (empty = start an in-process server)")
	metricsURL := flag.String("metrics-url", "", "daemon metrics endpoint to scrape (required with -addr)")
	seconds := flag.Int("seconds", 60, "steady-phase duration in seconds")
	overloadSeconds := flag.Int("overload-seconds", 5, "overload-flood duration in seconds")
	workers := flag.Int("workers", 4, "steady-phase worker connections")
	overloadConns := flag.Int("overload-conns", 8, "overload-phase flooding connections")
	seed := flag.Uint64("seed", 1, "corpus generator seed")
	rounds := flag.Int("rounds", 2, "corpus rounds (one document per shape per round)")
	maxConcurrent := flag.Int("max-concurrent", 8, "self-serve: admission bound on concurrently executing requests")
	maxQueue := flag.Int("max-queue", 32, "self-serve: admission queue depth beyond -max-concurrent")
	maxWait := flag.Duration("max-wait", 0, "self-serve: longest a queued request may wait (0 = default 100ms)")
	out := flag.String("out", "", "output report path (default SOAK.json, or SOAK_cluster.json with -cluster)")
	smoke := flag.Bool("smoke", false, "shrink to a quick CI-sized run")
	flag.Parse()

	outPath := *out
	if outPath == "" {
		outPath = "SOAK.json"
		if *cluster != "" {
			outPath = "SOAK_cluster.json"
		}
	}

	if *cluster != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		secs := *seconds
		if *smoke {
			secs = 10
		}
		if err := runClusterSoak(ctx, *cluster, secs, *workers, outPath); err != nil {
			fmt.Fprintln(os.Stderr, "cmifsoak:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*addr, *metricsURL, *seconds, *overloadSeconds, *workers,
		*overloadConns, *seed, *rounds, *maxConcurrent, *maxQueue, *maxWait,
		outPath, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "cmifsoak:", err)
		os.Exit(1)
	}
}

func run(addr, metricsURL string, seconds, overloadSeconds, workers,
	overloadConns int, seed uint64, rounds, maxConcurrent, maxQueue int,
	maxWait time.Duration, out string, smoke bool) error {

	cfg := experiments.SoakBenchConfig{
		Addr:            addr,
		MetricsURL:      metricsURL,
		Seconds:         float64(seconds),
		OverloadSeconds: float64(overloadSeconds),
		Workers:         workers,
		OverloadConns:   overloadConns,
		CorpusSeed:      seed,
		CorpusRounds:    rounds,
	}
	if smoke {
		cfg.Seconds, cfg.OverloadSeconds, cfg.CorpusRounds = 6, 2, 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.Addr == "" {
		teardown, bound, mURL, err := selfServe(ctx, maxConcurrent, maxQueue, maxWait)
		if err != nil {
			return err
		}
		defer teardown()
		cfg.Addr, cfg.MetricsURL = bound, mURL
		fmt.Fprintf(os.Stderr, "cmifsoak: self-serving on %s, metrics at %s\n", bound, mURL)
	} else if cfg.MetricsURL == "" {
		return errors.New("-metrics-url is required with -addr")
	}

	report, err := experiments.SoakBench(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Println(report.Table())
	data, err := report.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cmifsoak: wrote %s\n", out)

	violations := experiments.CheckSoakReport(report)
	if len(violations) == 0 {
		fmt.Fprintln(os.Stderr, "cmifsoak: soak gate passed")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "cmifsoak: gate:", v)
	}
	return fmt.Errorf("%d soak-gate violations", len(violations))
}

// selfServe starts an in-process admission-controlled server plus a
// loopback metrics listener, and returns a teardown that drains both.
func selfServe(ctx context.Context, maxConcurrent, maxQueue int, maxWait time.Duration) (teardown func(), bound, metricsURL string, err error) {
	s := cmif.NewServer(
		cmif.WithAdmission(cmif.AdmissionConfig{
			MaxConcurrent: maxConcurrent,
			MaxQueue:      maxQueue,
			MaxWait:       maxWait,
		}),
		cmif.WithShutdownGrace(2*time.Second),
	)
	bound, err = s.Listen("127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, "", "", err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, "", "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.Metrics().Handler())
	msrv := &http.Server{Handler: mux}
	go func() {
		if serr := msrv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cmifsoak: metrics server:", serr)
		}
	}()

	serveCtx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- s.Serve(serveCtx) }()

	teardown = func() {
		cancel()
		if serr := <-served; serr != nil && !errors.Is(serr, context.Canceled) {
			fmt.Fprintln(os.Stderr, "cmifsoak: server:", serr)
		}
		drainCtx, done := context.WithTimeout(context.Background(), 2*time.Second)
		msrv.Shutdown(drainCtx)
		done()
	}
	return teardown, bound, "http://" + ln.Addr().String() + "/metrics", nil
}
