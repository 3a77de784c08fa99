// Command cmifbench regenerates every experiment artifact of the paper
// reproduction — the section 3.1 table, Figures 1-10, the two ablations —
// plus the S1 storage/fetch concurrency scenarios (BENCH_store.json),
// the S2 scheduler scenarios (BENCH_sched.json), the S4 durability
// scenarios (BENCH_durable.json), the S6 live-document subscription
// scenarios (BENCH_subs.json), the S7 edge-tier scenarios
// (BENCH_edge.json) and the S9 wire-saturation scenarios
// (BENCH_wire2.json).
//
// Usage:
//
//	cmifbench [flags] [T1 F1 ... A2 S1 S2 S4 S6 S7 S9]
//
// Run with no experiment ids for everything; naming ids restricts the run.
// -smoke shrinks the S1/S2/S4/S6/S7/S9 configurations to CI-sized
// quick runs. The -check-store/-check-sched/-check-durable/-check-subs/
// -check-edge/-check-wire2 flags additionally validate a committed
// BENCH file and the fresh results against the bench-regression
// invariants, exiting nonzero on violation (the scripts/check_bench.sh
// gate).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/cmif"
)

func main() {
	storeOut := flag.String("store-out", "BENCH_store.json", "path for the S1 store-bench JSON results")
	clients := flag.String("clients", "1,16", "comma-separated concurrent client counts for S1")
	fetches := flag.Int("fetches", 256, "block fetches per client in S1")
	blocks := flag.Int("blocks", 64, "corpus size (blocks) in S1")

	schedOut := flag.String("sched-out", "BENCH_sched.json", "path for the S2 sched-bench JSON results")
	schedLeaves := flag.String("sched-leaves", "", "comma-separated leaf counts for S2 (default 1000,10000,100000)")
	schedArms := flag.Int("sched-arms", 0, "parallel arms (components) for S2 (default 16)")
	schedEdits := flag.Int("sched-edits", 0, "edit-churn loop length for S2 (default 24)")

	durableOut := flag.String("durable-out", "BENCH_durable.json", "path for the S4 durability-bench JSON results")
	durableRecover := flag.String("durable-recover", "", "comma-separated recovery corpus sizes for S4 (default 1000,10000)")
	durableWrites := flag.Int("durable-writes", 0, "blocks in the S4 sync-policy write scenario (default 2048)")

	subsOut := flag.String("subs-out", "BENCH_subs.json", "path for the S6 subscription-bench JSON results")
	subsList := flag.String("subs-list", "", "comma-separated subscriber counts for S6 (default 100,1000,10000)")
	subsEdits := flag.Int("subs-edits", 0, "edits per S6 scenario (default 16; quartered past 2000 subscribers)")
	subsWriters := flag.Int("subs-writers", 0, "concurrent writers in S6 (default 2)")

	edgeOut := flag.String("edge-out", "BENCH_edge.json", "path for the S7 edge-bench JSON results")
	edgeClients := flag.Int("edge-clients", 0, "downstream client population for S7 (default 1000)")
	edgeList := flag.String("edge-list", "", "comma-separated edge counts for S7 (default 1,4)")
	edgeFetches := flag.Int("edge-fetches", 0, "measured fetches per client in S7 (default 32)")

	wire2Out := flag.String("wire2-out", "BENCH_wire2.json", "path for the S9 wire-saturation JSON results")
	wire2Blocks := flag.Int("wire2-blocks", 0, "blocks per corpus in S9 (default 48)")
	wire2Bytes := flag.Int("wire2-bytes", 0, "payload size in bytes for S9 (default 256 KiB)")
	wire2Workers := flag.Int("wire2-workers", 0, "concurrent workers sharing one connection in S9 (default 8)")

	smoke := flag.Bool("smoke", false, "shrink S1/S2/S4/S6/S7/S9 to quick CI-sized configurations")
	checkStore := flag.String("check-store", "", "committed BENCH_store.json to validate against the regression gate")
	checkSched := flag.String("check-sched", "", "committed BENCH_sched.json to validate against the regression gate")
	checkDurable := flag.String("check-durable", "", "committed BENCH_durable.json to validate against the regression gate")
	checkSubs := flag.String("check-subs", "", "committed BENCH_subs.json to validate against the regression gate")
	checkEdge := flag.String("check-edge", "", "committed BENCH_edge.json to validate against the regression gate")
	checkWire2 := flag.String("check-wire2", "", "committed BENCH_wire2.json to validate against the regression gate")
	flag.Parse()

	want := map[string]bool{}
	for _, arg := range flag.Args() {
		want[arg] = true
	}
	runAll := len(want) == 0
	failed := 0
	for _, exp := range cmif.Experiments() {
		if !runAll && !want[exp.ID] {
			continue
		}
		tbl, err := exp.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmifbench: %s: %v\n", exp.ID, err)
			failed++
			continue
		}
		fmt.Println(tbl)
	}
	if runAll || want["S1"] {
		if err := runStoreBench(*storeOut, *clients, *blocks, *fetches, *smoke, *checkStore); err != nil {
			fmt.Fprintf(os.Stderr, "cmifbench: S1: %v\n", err)
			failed++
		}
	}
	if runAll || want["S2"] {
		if err := runSchedBench(*schedOut, *schedLeaves, *schedArms, *schedEdits, *smoke, *checkSched); err != nil {
			fmt.Fprintf(os.Stderr, "cmifbench: S2: %v\n", err)
			failed++
		}
	}
	if runAll || want["S4"] {
		if err := runDurableBench(*durableOut, *durableRecover, *durableWrites, *smoke, *checkDurable); err != nil {
			fmt.Fprintf(os.Stderr, "cmifbench: S4: %v\n", err)
			failed++
		}
	}
	if runAll || want["S6"] {
		if err := runSubsBench(*subsOut, *subsList, *subsEdits, *subsWriters, *smoke, *checkSubs); err != nil {
			fmt.Fprintf(os.Stderr, "cmifbench: S6: %v\n", err)
			failed++
		}
	}
	if runAll || want["S7"] {
		if err := runEdgeBench(*edgeOut, *edgeList, *edgeClients, *edgeFetches, *smoke, *checkEdge); err != nil {
			fmt.Fprintf(os.Stderr, "cmifbench: S7: %v\n", err)
			failed++
		}
	}
	if runAll || want["S9"] {
		if err := runWireSatBench(*wire2Out, *wire2Blocks, *wire2Bytes, *wire2Workers, *smoke, *checkWire2); err != nil {
			fmt.Fprintf(os.Stderr, "cmifbench: S9: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runStoreBench runs the S1 concurrency scenarios, prints the table,
// writes the JSON report to out, and optionally gates it against a
// committed reference report.
func runStoreBench(out, clientList string, blocks, fetches int, smoke bool, checkAgainst string) error {
	cfg := cmif.StoreBenchConfig{Blocks: blocks, FetchesPerClient: fetches}
	if smoke {
		cfg.Blocks, cfg.FetchesPerClient = 16, 128
	}
	for _, f := range strings.Split(clientList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -clients entry %q", f)
		}
		cfg.Clients = append(cfg.Clients, n)
	}
	report, err := cmif.RunStoreBench(context.Background(), cfg)
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
	fmt.Fprintf(os.Stderr, "cmifbench: wrote %s\n", out)
	if checkAgainst == "" {
		return nil
	}
	committed, err := cmif.LoadStoreBenchReport(checkAgainst)
	if err != nil {
		return err
	}
	var violations []string
	for _, v := range cmif.CheckStoreBenchReport(committed, true) {
		violations = append(violations, "committed: "+v)
	}
	for _, v := range cmif.CheckStoreBenchReport(report, false) {
		violations = append(violations, "fresh: "+v)
	}
	return reportViolations("store", violations)
}

// runSchedBench runs the S2 scheduler scenarios with the same output and
// gating shape as S1.
func runSchedBench(out, leavesList string, arms, edits int, smoke bool, checkAgainst string) error {
	var cfg cmif.SchedBenchConfig
	if leavesList != "" {
		for _, f := range strings.Split(leavesList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 2 {
				return fmt.Errorf("bad -sched-leaves entry %q", f)
			}
			cfg.Leaves = append(cfg.Leaves, n)
		}
	}
	cfg.Arms, cfg.Edits = arms, edits
	if smoke {
		if len(cfg.Leaves) == 0 {
			cfg.Leaves = []int{512, 4096}
		}
		if cfg.Arms == 0 {
			cfg.Arms = 8
		}
		if cfg.Edits == 0 {
			cfg.Edits = 12
		}
	}
	report, err := cmif.RunSchedBench(cfg)
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
	fmt.Fprintf(os.Stderr, "cmifbench: wrote %s\n", out)
	if checkAgainst == "" {
		return nil
	}
	committed, err := cmif.LoadSchedBenchReport(checkAgainst)
	if err != nil {
		return err
	}
	var violations []string
	for _, v := range cmif.CheckSchedBenchReport(committed, true) {
		violations = append(violations, "committed: "+v)
	}
	for _, v := range cmif.CheckSchedBenchReport(report, false) {
		violations = append(violations, "fresh: "+v)
	}
	return reportViolations("sched", violations)
}

// runDurableBench runs the S4 durability scenarios with the same output
// and gating shape as S1/S2.
func runDurableBench(out, recoverList string, writeBlocks int, smoke bool, checkAgainst string) error {
	cfg := cmif.DurableBenchConfig{WriteBlocks: writeBlocks}
	if recoverList != "" {
		for _, f := range strings.Split(recoverList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -durable-recover entry %q", f)
			}
			cfg.RecoverBlocks = append(cfg.RecoverBlocks, n)
		}
	}
	if smoke {
		if cfg.WriteBlocks == 0 {
			cfg.WriteBlocks = 256
		}
		if len(cfg.RecoverBlocks) == 0 {
			cfg.RecoverBlocks = []int{256, 1024}
		}
	}
	report, err := cmif.RunDurableBench(context.Background(), cfg)
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
	fmt.Fprintf(os.Stderr, "cmifbench: wrote %s\n", out)
	if checkAgainst == "" {
		return nil
	}
	committed, err := cmif.LoadDurableBenchReport(checkAgainst)
	if err != nil {
		return err
	}
	var violations []string
	for _, v := range cmif.CheckDurableBenchReport(committed, true) {
		violations = append(violations, "committed: "+v)
	}
	for _, v := range cmif.CheckDurableBenchReport(report, false) {
		violations = append(violations, "fresh: "+v)
	}
	return reportViolations("durable", violations)
}

// runSubsBench runs the S6 live-document scenarios with the same output
// and gating shape as S1-S4.
func runSubsBench(out, subsList string, edits, writers int, smoke bool, checkAgainst string) error {
	cfg := cmif.SubsBenchConfig{Edits: edits, Writers: writers}
	if subsList != "" {
		for _, f := range strings.Split(subsList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -subs-list entry %q", f)
			}
			cfg.Subscribers = append(cfg.Subscribers, n)
		}
	}
	if smoke {
		if len(cfg.Subscribers) == 0 {
			cfg.Subscribers = []int{8, 32}
		}
		if cfg.Edits == 0 {
			cfg.Edits = 8
		}
		cfg.DocLeaves, cfg.DocArms = 200, 8
	}
	report, err := cmif.RunSubsBench(context.Background(), cfg)
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
	fmt.Fprintf(os.Stderr, "cmifbench: wrote %s\n", out)
	if checkAgainst == "" {
		return nil
	}
	committed, err := cmif.LoadSubsBenchReport(checkAgainst)
	if err != nil {
		return err
	}
	var violations []string
	for _, v := range cmif.CheckSubsBenchReport(committed, true) {
		violations = append(violations, "committed: "+v)
	}
	for _, v := range cmif.CheckSubsBenchReport(report, false) {
		violations = append(violations, "fresh: "+v)
	}
	return reportViolations("subs", violations)
}

// runEdgeBench runs the S7 edge-tier scenarios with the same output and
// gating shape as S1-S6.
func runEdgeBench(out, edgeList string, clients, fetches int, smoke bool, checkAgainst string) error {
	cfg := cmif.EdgeBenchConfig{Clients: clients, FetchesPerClient: fetches}
	if edgeList != "" {
		for _, f := range strings.Split(edgeList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -edge-list entry %q", f)
			}
			cfg.Edges = append(cfg.Edges, n)
		}
	}
	if smoke {
		if cfg.Clients == 0 {
			cfg.Clients = 64
		}
		if len(cfg.Edges) == 0 {
			cfg.Edges = []int{1, 2}
		}
		if cfg.FetchesPerClient == 0 {
			cfg.FetchesPerClient = 16
		}
		cfg.Blocks, cfg.ConnsPerServer = 16, 8
	}
	report, err := cmif.RunEdgeBench(context.Background(), cfg)
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
	fmt.Fprintf(os.Stderr, "cmifbench: wrote %s\n", out)
	if checkAgainst == "" {
		return nil
	}
	committed, err := cmif.LoadEdgeBenchReport(checkAgainst)
	if err != nil {
		return err
	}
	var violations []string
	for _, v := range cmif.CheckEdgeBenchReport(committed, true) {
		violations = append(violations, "committed: "+v)
	}
	for _, v := range cmif.CheckEdgeBenchReport(report, false) {
		violations = append(violations, "fresh: "+v)
	}
	return reportViolations("edge", violations)
}

// runWireSatBench runs the S9 wire-saturation scenarios with the same
// output and gating shape as S1-S7.
func runWireSatBench(out string, blocks, blockBytes, workers int, smoke bool, checkAgainst string) error {
	cfg := cmif.WireSatBenchConfig{Blocks: blocks, BlockBytes: blockBytes, Workers: workers}
	if smoke {
		if cfg.Blocks == 0 {
			cfg.Blocks = 16
		}
		if cfg.BlockBytes == 0 {
			cfg.BlockBytes = 128 << 10
		}
		cfg.WarmRounds = 2
	}
	report, err := cmif.RunWireSatBench(context.Background(), cfg)
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
	fmt.Fprintf(os.Stderr, "cmifbench: wrote %s\n", out)
	if checkAgainst == "" {
		return nil
	}
	committed, err := cmif.LoadWireSatBenchReport(checkAgainst)
	if err != nil {
		return err
	}
	var violations []string
	for _, v := range cmif.CheckWireSatBenchReport(committed, true) {
		violations = append(violations, "committed: "+v)
	}
	for _, v := range cmif.CheckWireSatBenchReport(report, false) {
		violations = append(violations, "fresh: "+v)
	}
	return reportViolations("wire-saturation", violations)
}

func reportViolations(name string, violations []string) error {
	if len(violations) == 0 {
		fmt.Fprintf(os.Stderr, "cmifbench: %s bench-regression gate passed\n", name)
		return nil
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "cmifbench: %s gate: %s\n", name, v)
	}
	return fmt.Errorf("%d bench-regression violations", len(violations))
}
