package experiments

import (
	"strings"
	"testing"
)

// healthySoakReport is a synthetic report every clause of the soak gate
// accepts: six steady classes inside the SLO, an overload row that both
// shed and served, clean scrapes, and server counters that cover the
// 560 client operations the daemon must have seen (the edge class is
// served by the caching tier and is not counted against the origin).
func healthySoakReport() *SoakBenchReport {
	r := &SoakBenchReport{
		Config:           SoakBenchConfig{SLO: SoakSLO{P50MS: 50, P99MS: 250, P999MS: 1000}},
		Env:              BenchEnv{GoMaxProcs: 2, GoVersion: "go1.24"},
		OverloadBusy:     40,
		ScrapeStatus:     200,
		ScrapeJSONStatus: 200,
		PromBytes:        4096,
		ServerCounters: map[string]int64{
			`cmif_requests_total{op="getblk"}`:                500,
			`cmif_requests_total{op="getblks"}`:               200,
			`cmif_busy_rejections_total{reason="queue_full"}`: 40,
		},
	}
	for _, class := range []string{"read", "fetch", "query", "edit", "subscribe", "edge"} {
		r.Rows = append(r.Rows, SoakRow{Class: class, Ops: 100, P50MS: 2, P99MS: 20, P999MS: 80})
	}
	r.Rows = append(r.Rows, SoakRow{Class: "overload", Ops: 60, Busy: 40, P50MS: 30, P99MS: 400, P999MS: 900})
	return r
}

func TestCheckSoakReport(t *testing.T) {
	row := func(r *SoakBenchReport, class string) *SoakRow {
		for i := range r.Rows {
			if r.Rows[i].Class == class {
				return &r.Rows[i]
			}
		}
		t.Fatalf("fixture has no %s row", class)
		return nil
	}
	for _, tc := range []struct {
		name   string
		mutate func(r *SoakBenchReport)
		want   string // substring of the one expected violation; "" = passes
	}{
		{"healthy", func(r *SoakBenchReport) {}, ""},
		{"class over its SLO", func(r *SoakBenchReport) { row(r, "fetch").P99MS = 300 },
			"fetch p99 300.0ms exceeds the 250ms SLO"},
		{"steady-phase shed", func(r *SoakBenchReport) { row(r, "read").Busy = 3 },
			"read class was shed 3 times during the steady phase"},
		{"overload shed nothing", func(r *SoakBenchReport) { row(r, "overload").Busy, r.OverloadBusy = 0, 0 },
			"overload phase shed nothing"},
		{"overload admitted nothing", func(r *SoakBenchReport) { row(r, "overload").Ops = 0 },
			"overload phase admitted nothing"},
		{"missing class", func(r *SoakBenchReport) { r.Rows = r.Rows[1:] },
			"missing read row"},
		{"server undercounts", func(r *SoakBenchReport) { r.ServerCounters[`cmif_requests_total{op="getblk"}`] = 300 },
			"server counted 500 requests but clients completed 560"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := healthySoakReport()
			tc.mutate(r)
			v := CheckSoakReport(r)
			switch {
			case tc.want == "" && len(v) != 0:
				t.Fatalf("healthy report failed the gate: %q", v)
			case tc.want != "" && (len(v) != 1 || !strings.Contains(v[0], tc.want)):
				t.Fatalf("violations = %q, want exactly one containing %q", v, tc.want)
			}
		})
	}
}
