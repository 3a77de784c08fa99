package sched

import (
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d is\n%s\nwant\n%s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestNotesGolden pins the words a failure or drop report prints: the
// ConflictError text of every strict solve of the golden corpus and of 150
// oracle documents that conflicts — with and without rigid leaves and
// seq gaps, and under runtime latencies — and every Dropped arc of the
// relaxed solves. It opens with the note of every constraint of one
// oracle document built with rigid leaves, so each rule's wording shows.
func TestNotesGolden(t *testing.T) {
	var b strings.Builder
	rng := rand.New(rand.NewSource(47))
	g, err := Build(oracleDoc(t, rng), Options{DefaultLeafDuration: 500 * time.Millisecond, RigidLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Constraints() {
		b.WriteString(c.Note() + "\n")
	}
	report := func(label string, s *Schedule, err error) {
		var ce *ConflictError
		switch {
		case errors.As(err, &ce):
			b.WriteString(label + ": " + ce.Error() + "\n")
		case err != nil:
			t.Fatalf("%s: %v", label, err)
		case len(s.Dropped) > 0:
			b.WriteString(label + ": dropped\n")
			for _, r := range s.Dropped {
				b.WriteString("  " + r.String() + "\n")
			}
		}
	}
	for _, spec := range goldenSpecs {
		g, err := Build(corpusDoc(t, spec), Options{DefaultLeafDuration: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		label := string(spec.Shape) + "-" + itoa(int(spec.Seed))
		for _, relax := range []bool{false, true} {
			s, err := g.Solve(SolveOptions{Relax: relax})
			report(label+map[bool]string{false: " strict", true: " relaxed"}[relax], s, err)
		}
	}
	for i := 0; i < 150; i++ {
		d := oracleDoc(t, rng)
		opts := Options{DefaultLeafDuration: 500 * time.Millisecond, RigidLeaves: rng.Intn(2) == 0, SeqGaps: rng.Intn(3) == 0}
		g, err := Build(d, opts)
		if err != nil {
			b.WriteString("doc " + itoa(i) + ": " + err.Error() + "\n")
			continue
		}
		label := "doc " + itoa(i)
		if _, err := g.Solve(SolveOptions{}); err != nil {
			report(label+" strict", nil, err)
		}
		plan, err := g.Solve(SolveOptions{Relax: true})
		report(label+" relaxed", plan, err)
		if err != nil {
			continue
		}
		var bounds []Constraint
		for _, l := range d.Root.Leaves() {
			if rng.Intn(3) == 0 {
				lat := time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
				bounds = append(bounds, RuntimeLower(0, g.Begin(l), plan.StartOf(l)+lat, func() string { return "latency on " + l.PathString() }))
			}
		}
		s, err := g.SolveFrom(plan, bounds, nil, SolveOptions{Relax: true})
		report(label+" latencies", s, err)
	}
	checkGolden(t, "notes.golden", b.String())
}
