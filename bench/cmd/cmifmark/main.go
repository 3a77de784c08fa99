// Command cmifmark is the repository's one repeatable benchmark. One
// invocation runs one workload once and prints every metric by name with
// its unit, then — as the last line of standard output — one JSON object
// for the driver. It exits non-zero if any output check failed.
//
//	cmifmark --workload view-media --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced, reports the per-layer ones and writes the span file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/bench/mark"
)

// output is the driver's result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var names []string
	for _, w := range mark.Workloads() {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", "", "one of: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed of the op schedule")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for data and cache directories")
	spans := flag.String("spans", "", "with --trace 1: where the spans and the self-time-by-layer table go (default .bench_build/spans-<workload>.json)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	if *trace == 1 && *spans == "" {
		*spans = filepath.Join(".bench_build", "spans-"+*workload+".json")
	}
	res, err := mark.Run(context.Background(), mark.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		WorkDir:  *workDir,
		SpanFile: *spans,
		Log:      os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmifmark:", err)
		os.Exit(1)
	}

	out := output{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("%-34s %14s  %s\n", "metric", "value", "unit")
	for _, m := range res.Metrics {
		note := ""
		if m.Samples > 0 {
			note = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Printf("%-34s %14.6g  %s%s\n", m.Name, m.Value, m.Unit, note)
		out.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	if len(res.Layers) > 0 {
		fmt.Printf("\n%-12s %12s %8s %12s\n", "layer", "self ms", "share", "ms per op")
		for _, r := range res.Layers {
			fmt.Printf("%-12s %12.1f %8.3f %12.4f\n", r.Layer, r.SelfMS, r.Share, r.PerOpMS)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "cmifmark: failed check:", e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmifmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		// A run with a failed output check reports no result.
		fmt.Fprintf(os.Stderr, "cmifmark: %d of %d ops and checks failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
