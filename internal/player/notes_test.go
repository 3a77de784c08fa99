package player

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestPlaybackNotesGolden pins the words playback prints: Result.String()
// of every golden corpus document under UniformJitter(1, 30ms), and the
// irreducible conflict a device latency meets when a strict run may not
// drop the May arc it breaks.
func TestPlaybackNotesGolden(t *testing.T) {
	var b strings.Builder
	for _, want := range corpusGolden {
		if want.spec.Shape != corpus.DeepNest || want.spec.Seed%2 != 0 {
			continue
		}
		g := corpusGraph(t, want.spec)
		res, err := Play(g, Options{Jitter: UniformJitter(1, 30*time.Millisecond), Relax: true})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s-%d: %s", want.spec.Shape, want.spec.Seed, res)
	}

	root := core.NewPar().SetName("r")
	a := leaf("a", "video", 300)
	a.AddArc(core.SyncArc{DestEnd: core.Begin, Strict: core.May,
		Source: "/", SrcEnd: core.Begin, Dest: "", MaxDelay: units.MS(0)})
	root.Add(a, leaf("b", "sound", 200))
	plan, err := graph(t, root).Solve(sched.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlaySchedule(plan, Options{Jitter: ChannelJitter("video", 50*time.Millisecond)})
	if err == nil {
		t.Fatal("a strict run absorbed a latency past its hard May window")
	}
	fmt.Fprintf(&b, "irreducible: %v\n", err)

	path := filepath.Join("testdata", "playback.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(golden) {
		t.Errorf("playback text differs from %s:\n%s", path, got)
	}
}
