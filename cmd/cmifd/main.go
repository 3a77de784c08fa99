// Command cmifd serves CMIF documents and data blocks over the interchange
// protocol — the stand-in for the distributed document store of the paper's
// section 6.
//
// Usage:
//
//	cmifd [-addr 127.0.0.1:7911] [-news N] [-idle 2m] [-grace 5s]
//	      [-max-inflight 32] [-compress=false]
//	      [-data DIR] [-sync always|interval|never] [-snap-bytes N]
//	      [-metrics ADDR] [-max-concurrent N] [-max-queue N] [-max-wait D]
//	      [-max-subscribers N] [-sub-queue N]
//
// With -news, the built-in evening-news corpus is preloaded under the name
// "news". With -data, the server is durable: the corpus recovers from DIR
// on start (snapshot load plus WAL replay) and every mutation is
// write-ahead-logged before it is acknowledged, so a cmifd killed
// mid-ingest — even with SIGKILL — restarts with its exact pre-kill
// corpus. -sync picks the fsync policy and -snap-bytes the automatic
// snapshot/compaction threshold. The server speaks the multiplexed wire
// protocol v4 — live-document subscriptions, negotiated frame
// compression (-compress=false declines) and chunk-deduped block
// fetches — and bounds per-connection pipelining with -max-inflight.
// -max-subscribers bounds live subscriptions server-wide and -sub-queue
// sets how many pending changes a slow watcher may buffer before it is
// shed.
//
// With -metrics, an HTTP endpoint serves the server's instruments at
// /metrics: Prometheus text exposition by default, JSON with
// ?format=json. With -max-concurrent, server-wide admission control
// bounds how many requests execute at once (-max-queue more may wait,
// each at most -max-wait); the excess is shed promptly with a busy
// error instead of collapsing every request's latency.
//
// It runs until SIGINT or SIGTERM, then drains gracefully: in-flight
// requests get their responses, the metrics listener drains after the
// wire listener, and the final counter totals are logged before exit.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmif"
	"repro/internal/daemon"
)

func main() {
	var common daemon.Flags
	common.Register(flag.CommandLine, "127.0.0.1:7911", "server-wide")
	news := flag.Int("news", 2, "preload the evening news with N stories (0 disables)")
	compress := flag.Bool("compress", true, "offer negotiated per-frame compression to clients")
	dataDir := flag.String("data", "", "durable data directory: recover the corpus from it and write-ahead-log every mutation (empty = in-memory only)")
	syncMode := flag.String("sync", "interval", "WAL fsync policy with -data: always, interval or never")
	snapBytes := flag.Int64("snap-bytes", 0, "snapshot+compact once the WAL grows past this many bytes (0 = default 64 MiB, negative disables)")
	flag.Parse()

	opts := []cmif.ServeOption{
		cmif.WithIdleTimeout(common.Idle),
		cmif.WithShutdownGrace(common.Grace),
		cmif.WithMaxInFlight(common.MaxInFlight),
		cmif.WithServerCompression(*compress),
		cmif.WithSubscriberQueue(common.SubQueue),
	}
	if adm, ok := common.Admission(); ok {
		opts = append(opts, cmif.WithAdmission(adm))
	}
	if *dataDir != "" {
		policy, err := cmif.ParseSyncPolicy(*syncMode)
		if err != nil {
			fatal(err)
		}
		opts = append(opts,
			cmif.WithDataDir(*dataDir),
			cmif.WithSyncPolicy(policy),
			cmif.WithSnapshotThreshold(*snapBytes),
		)
	}
	if *news > 0 {
		doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: *news})
		if err != nil {
			fatal(err)
		}
		opts = append(opts,
			cmif.WithServedStore(store),
			cmif.WithServedDocument("news", doc),
		)
	}

	ctx, stop := daemon.SignalContext()
	defer stop()

	s := cmif.NewServer(opts...)
	bound, err := s.Listen(common.Addr)
	if err != nil {
		s.Close()
		fatal(err)
	}
	fmt.Printf("cmifd: serving %d documents, %d blocks on %s\n",
		len(s.DocumentNames()), s.Store().Len(), bound)
	if *dataDir != "" {
		fmt.Printf("cmifd: durable in %s (sync=%s)\n", *dataDir, *syncMode)
	}
	if common.MaxConcurrent > 0 {
		fmt.Printf("cmifd: admission control: %d concurrent, %d queued, %v max wait\n",
			common.MaxConcurrent, common.MaxQueue, common.MaxWait)
	}

	os.Exit(daemon.Run(ctx, s, daemon.RunConfig{
		Name:        "cmifd",
		Grace:       common.Grace,
		MetricsAddr: common.Metrics,
		Metrics:     s.Metrics(),
	}))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmifd:", err)
	os.Exit(1)
}
