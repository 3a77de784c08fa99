package corpus

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/sched"
)

// TestGenerateShapesScheduleAndValidate checks the generator contract:
// every shape yields a document that validates and schedules (DeepNest
// under relaxation, by design).
func TestGenerateShapesScheduleAndValidate(t *testing.T) {
	for _, sh := range Shapes() {
		sh := sh
		t.Run(string(sh), func(t *testing.T) {
			d, store, err := Generate(Spec{Shape: sh, Seed: 42, Size: 3, Depth: 4})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if store == nil {
				t.Fatal("Generate returned a nil store")
			}
			solver, err := sched.NewSolver(d, sched.Options{DefaultLeafDuration: 0},
				sched.SolveOptions{Relax: sh == DeepNest})
			if err != nil {
				t.Fatalf("NewSolver: %v", err)
			}
			s, err := solver.Schedule()
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			if s.Makespan() <= 0 {
				t.Errorf("makespan = %v, want > 0", s.Makespan())
			}
			if g := solver.Graph(); g.NumEvents() == 0 || g.NumConstraints() == 0 {
				t.Errorf("%v, want a non-trivial constraint system", g)
			}
		})
	}
}

// TestGenerateDeterministic pins seedability: equal specs produce
// byte-identical document encodings; different seeds diverge.
func TestGenerateDeterministic(t *testing.T) {
	for _, sh := range Shapes() {
		a, _, err := Generate(Spec{Shape: sh, Seed: 7, Size: 3})
		if err != nil {
			t.Fatalf("%s: %v", sh, err)
		}
		b, _, err := Generate(Spec{Shape: sh, Seed: 7, Size: 3})
		if err != nil {
			t.Fatalf("%s: %v", sh, err)
		}
		ea, err := codec.EncodeBinary(a)
		if err != nil {
			t.Fatalf("%s encode: %v", sh, err)
		}
		eb, err := codec.EncodeBinary(b)
		if err != nil {
			t.Fatalf("%s encode: %v", sh, err)
		}
		if string(ea) != string(eb) {
			t.Errorf("%s: same seed produced different documents", sh)
		}
		c, _, err := Generate(Spec{Shape: sh, Seed: 8, Size: 3})
		if err != nil {
			t.Fatalf("%s: %v", sh, err)
		}
		ec, err := codec.EncodeBinary(c)
		if err != nil {
			t.Fatalf("%s encode: %v", sh, err)
		}
		if string(ea) == string(ec) {
			t.Errorf("%s: different seeds produced identical documents", sh)
		}
	}
}

// TestNewsWebShape checks the multilingual structure: one caption track
// per language, translations arced to the primary, stories chained.
func TestNewsWebShape(t *testing.T) {
	d, store, err := Generate(Spec{Shape: NewsWeb, Seed: 1, Size: 3, Languages: 4})
	if err != nil {
		t.Fatal(err)
	}
	root := d.Root
	if got := root.NumChildren(); got != 3 {
		t.Fatalf("stories = %d, want 3", got)
	}
	story := root.Child(0)
	// video + audio + 4 caption tracks
	if got := story.NumChildren(); got != 6 {
		t.Errorf("story children = %d, want 6", got)
	}
	if store.Len() == 0 {
		t.Error("newsweb generated no media blocks")
	}
	for _, lang := range []string{"en", "nl", "fr", "de"} {
		if n, err := story.Resolve("caption-" + lang); err != nil || n == nil {
			t.Errorf("caption-%s missing: %v", lang, err)
		}
	}
}

// TestGenerateSet builds the mixed soak corpus and checks names are
// unique and every entry is loadable.
func TestGenerateSet(t *testing.T) {
	set, err := GenerateSet(99, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2*len(Shapes()) {
		t.Fatalf("len = %d, want %d", len(set), 2*len(Shapes()))
	}
	seen := map[string]bool{}
	for _, n := range set {
		if seen[n.Name] {
			t.Errorf("duplicate corpus name %q", n.Name)
		}
		seen[n.Name] = true
		if n.Doc == nil || n.Store == nil {
			t.Errorf("%s: nil doc or store", n.Name)
		}
	}
}

// TestGenerateUnknownShape pins the error path.
func TestGenerateUnknownShape(t *testing.T) {
	if _, _, err := Generate(Spec{Shape: "bogus"}); err == nil {
		t.Fatal("want error for unknown shape")
	}
}
