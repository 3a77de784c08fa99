package mark

import (
	"context"
	"testing"

	"repro/cmif"
)

// The traced run replaces RunPipeline with its own stage calls; they must
// produce what RunPipeline produces, or the traced run measures a
// different program.
func TestTracedViewMatchesPipeline(t *testing.T) {
	for _, spec := range []cmif.CorpusSpec{
		{Shape: cmif.CorpusNewsWeb, Seed: 9, Size: 2, Languages: 2},
		{Shape: cmif.CorpusDeepNest, Seed: 9, Size: 2, Depth: 3},
	} {
		doc, store, err := cmif.GenerateCorpus(spec)
		if err != nil {
			t.Fatal(err)
		}
		for p := range Profiles {
			op := ViewOp{Profile: p, JitterSeed: 77}
			want, err := cmif.RunPipeline(context.Background(), doc, append(viewOptions(op), cmif.WithStore(store))...)
			if err != nil {
				t.Fatal(err)
			}
			var stages []string
			got, err := runStages(doc, store, op, func(layer, name string, f func() error) error {
				stages = append(stages, name)
				return f()
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.makespan != want.Schedule.Makespan() || got.playedOK != want.Playback.Success() ||
				got.finishedAt != want.Playback.FinishedAt || got.filteredBytes != want.Filtered.TotalBytes() ||
				got.dropped != len(want.Schedule.Dropped) {
				t.Errorf("%v on %s: staged run %+v differs from RunPipeline", spec, Profiles[p].Name, got)
			}
			views := [4]string{want.TreeView, want.TimelineView, want.TOCView, want.ArcView}
			if got.views != views {
				t.Errorf("%v on %s: rendered views differ", spec, Profiles[p].Name)
			}
			if len(stages) != 8 {
				t.Errorf("stages = %v", stages)
			}
		}
	}
}

func TestSizeGuardRejectsHeavyDocument(t *testing.T) {
	wl := Workload{Name: "heavy", Specs: []cmif.CorpusSpec{{Shape: cmif.CorpusDeepNest, Seed: 1, Size: 3, Depth: 4}}}
	// DeepNest 3/4 views in well over a quarter of a second once the
	// limit is scaled down to 1 ms; the real limit is checked the same way.
	if _, err := generateCorpusGuarded(context.Background(), wl, 1); err == nil {
		t.Error("size guard let a heavy document through")
	}
}
