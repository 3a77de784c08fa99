// Command cmifnoise reads the result lines of two sets of cmifmark runs
// (scripts/repeat.sh collects them) and prints, per workload and metric,
// each set's median and quartiles, each set's spread — the distance
// between its quartiles as a share of its median, the figure the driver
// judges a benchmark's steadiness by — and how much worse set B's median
// is than set A's, against the metric's bound from BENCHMARK.json. It
// exits 1 if a spread or a difference exceeds its bound.
//
//	cmifnoise -benchmark BENCHMARK.json setA.tsv setB.tsv
//
// Each input line is "<workload>\t<result JSON>".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/bench/mark"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// readSet returns workload -> metric -> values.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		workload, line, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[workload][name] = append(set[workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

func spread(vals []float64) (q1, q2, q3, s float64) {
	q1, q2, q3 = mark.Quartiles(vals)
	if q2 != 0 {
		s = (q3 - q1) / q2
	}
	return
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cmifnoise [-benchmark BENCHMARK.json] setA.tsv setB.tsv")
		os.Exit(2)
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmifnoise:", err)
		os.Exit(2)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "cmifnoise:", err)
		os.Exit(2)
	}
	a, err := readSet(flag.Arg(0))
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readSet(flag.Arg(1)); err == nil {
			os.Exit(report(bench, a, b))
		}
	}
	fmt.Fprintln(os.Stderr, "cmifnoise:", err)
	os.Exit(2)
}

func report(bench benchmarkFile, a, b map[string]map[string][]float64) int {
	breaches := 0
	for _, w := range bench.Workloads {
		fmt.Printf("\n### %s (%d + %d runs)\n\n", w.Name, len(a[w.Name]["setup_s"]), len(b[w.Name]["setup_s"]))
		fmt.Println("| metric | unit | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | B worse than A | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range bench.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Printf("| %s | %s | too few runs | | | | | %g | MISSING |\n", m.Name, m.Unit, m.Bound)
				breaches++
				continue
			}
			a1, a2, a3, sa := spread(va)
			b1, b2, b3, sb := spread(vb)
			worse := 0.0
			if a2 != 0 {
				worse = (b2 - a2) / a2
				if m.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			// setup_s is exempt from the spread rule, not from the
			// difference rule.
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "BREACH"
				breaches++
			} else if sa > m.Bound/3 || sb > m.Bound/3 {
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.6g / %.6g / %.6g | %.6g / %.6g / %.6g | %.4f | %.4f | %+.4f | %g | %s |\n",
				m.Name, m.Unit, a1, a2, a3, b1, b2, b3, sa, sb, worse, m.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("\n%d breach(es).\n", breaches)
		return 1
	}
	fmt.Println("\nNo breach: every spread and every A-to-B difference is within its bound.")
	return 0
}
