package experiments

import (
	"fmt"
	"strings"
)

// CheckSoakReport validates a soak report against the S5 gate: every
// steady class ran error-free within the configured latency SLO, the
// overload phase both shed (via busy errors) and served (admitted p99
// within the SLO's tail budget), and the metrics endpoint answered both
// scrapes and corroborates the client-side counts. It returns
// human-readable violations; empty means the report passes.
func CheckSoakReport(r *SoakBenchReport) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if len(r.Rows) == 0 {
		return []string{"soak report has no rows"}
	}
	if r.Env.GoMaxProcs < 1 || r.Env.GoVersion == "" {
		fail("soak report env not captured: %+v", r.Env)
	}

	slo := r.Config.SLO
	rows := map[string]SoakRow{}
	for _, row := range r.Rows {
		rows[row.Class] = row
	}
	for _, class := range []string{"read", "fetch", "query", "edit", "subscribe", "edge"} {
		row, ok := rows[class]
		if !ok {
			fail("missing %s row", class)
			continue
		}
		if row.Ops == 0 {
			fail("%s class completed no operations", class)
		}
		if row.Errors > 0 {
			fail("%s class saw %d non-busy errors", class, row.Errors)
		}
		if row.Busy > 0 {
			fail("%s class was shed %d times during the steady phase; steady load must fit the admission bound", class, row.Busy)
		}
		if row.P50MS > slo.P50MS {
			fail("%s p50 %.1fms exceeds the %.0fms SLO", class, row.P50MS, slo.P50MS)
		}
		if row.P99MS > slo.P99MS {
			fail("%s p99 %.1fms exceeds the %.0fms SLO", class, row.P99MS, slo.P99MS)
		}
		if row.P999MS > slo.P999MS {
			fail("%s p999 %.1fms exceeds the %.0fms SLO", class, row.P999MS, slo.P999MS)
		}
	}

	over, ok := rows["overload"]
	switch {
	case !ok:
		fail("missing overload row")
	default:
		if over.Errors > 0 {
			fail("overload phase saw %d non-busy errors", over.Errors)
		}
		if over.Busy == 0 {
			fail("overload phase shed nothing: admission control never rejected under a deliberate flood")
		}
		if over.Ops == 0 {
			fail("overload phase admitted nothing: shedding must degrade service, not deny it")
		}
		// Requests admitted during the flood ride a deliberately
		// saturated write path, so they get the SLO's tail budget, not
		// the steady p99: bounded degradation, never collapse.
		if over.Ops > 0 && over.P99MS > slo.P999MS {
			fail("admitted overload p99 %.1fms exceeds the %.0fms tail budget; shedding failed to protect latency", over.P99MS, slo.P999MS)
		}
		if r.OverloadBusy != over.Busy {
			fail("overload_busy %d disagrees with the overload row's busy count %d", r.OverloadBusy, over.Busy)
		}
	}

	if r.ScrapeStatus < 200 || r.ScrapeStatus >= 300 {
		fail("prometheus scrape returned HTTP %d", r.ScrapeStatus)
	}
	if r.ScrapeJSONStatus < 200 || r.ScrapeJSONStatus >= 300 {
		fail("json scrape returned HTTP %d", r.ScrapeJSONStatus)
	}
	if r.PromBytes == 0 {
		fail("prometheus scrape returned an empty body")
	}

	// The daemon's own accounting must corroborate the client story.
	var served, shed int64
	for name, val := range r.ServerCounters {
		if strings.HasPrefix(name, "cmif_requests_total") {
			served += val
		}
		if strings.HasPrefix(name, "cmif_busy_rejections_total") {
			shed += val
		}
	}
	var clientOps int64
	for _, row := range r.Rows {
		// The edge class is served by the caching tier — once warm, most
		// of its reads never reach the daemon, so its ops cannot be
		// corroborated against the origin's request counters.
		if row.Class == "edge" {
			continue
		}
		clientOps += row.Ops
	}
	if served < clientOps {
		fail("server counted %d requests but clients completed %d; the metrics endpoint is undercounting", served, clientOps)
	}
	if over.Busy > 0 && shed == 0 {
		fail("clients saw %d busy rejections but cmif_busy_rejections_total is zero", over.Busy)
	}
	return v
}
