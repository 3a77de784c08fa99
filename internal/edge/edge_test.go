package edge

import (
	"context"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestEdgeMemoryHitAllocatesNothing: a block resident in the memory tier
// is answered without building the upstream timeout context — no
// allocation at all — and still counts as an answered fetch.
func TestEdgeMemoryHitAllocatesNothing(t *testing.T) {
	e := &Edge{
		mem:     transport.NewBlockCache(8),
		met:     newEdgeMetrics(metrics.NewRegistry()),
		baseCtx: context.Background(),
	}
	b := media.NewBlock("hot.txt", core.MediumText, []byte("a hot block"), attr.List{})
	e.mem.Add(b.Name, b)
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		if got, ok := e.GetBlock(b.Name); !ok || got != b {
			t.Fatalf("the memory-resident block was not served (ok=%v)", ok)
		}
	})
	if allocs != 0 {
		t.Errorf("a memory hit allocates %.1f times, want 0", allocs)
	}
	// AllocsPerRun calls the function once more to warm up.
	if hits := e.met.blockHits.Value(); hits != runs+1 {
		t.Errorf("cmif_edge_block_hits_total = %d after %d memory hits", hits, runs+1)
	}
	if st := e.mem.Stats(); st.Hits != runs+1 || st.Misses != 0 {
		t.Errorf("memory tier counted %+v, want %d hits and no miss", st, runs+1)
	}
}
