package mark

import (
	"bytes"
	"testing"

	"repro/cmif"
	"repro/internal/core"
)

func TestViewScheduleDeterministic(t *testing.T) {
	const docs, n = 8, 200
	a, b, other := NewViewSchedule(7, docs), NewViewSchedule(7, docs), NewViewSchedule(8, docs)
	differs := false
	for i := n - 1; i >= 0; i-- { // b is read backwards: order of access must not matter
		if a.At(n-1-i) != b.At(n-1-i) {
			t.Fatalf("same seed, op %d: %+v vs %+v", n-1-i, a.At(n-1-i), b.At(n-1-i))
		}
		if a.At(i) != other.At(i) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
}

// Every round views every (document, profile) pair exactly once, which
// is what makes bytes per op independent of the seed.
func TestViewScheduleRoundsAreComplete(t *testing.T) {
	s := NewViewSchedule(3, 5)
	size := s.RoundSize()
	if size != 5*len(Profiles) {
		t.Fatalf("round size %d", size)
	}
	for r := 0; r < 4; r++ {
		seen := map[[2]int]bool{}
		for i := r * size; i < (r+1)*size; i++ {
			op := s.At(i)
			seen[[2]int{op.Doc, op.Profile}] = true
		}
		if len(seen) != size {
			t.Errorf("round %d covers %d of %d pairs", r, len(seen), size)
		}
	}
}

func liveTestDoc(t *testing.T) (*cmif.Document, *cmif.Store) {
	t.Helper()
	d, store, err := cmif.GenerateCorpus(cmif.CorpusSpec{Shape: cmif.CorpusNewsWeb, Seed: 5, Size: 2, Languages: 2})
	if err != nil {
		t.Fatal(err)
	}
	return d, store
}

// authorScript runs n ops of the author's cycle against a mirror only and
// returns the concatenated wire records.
func authorScript(t *testing.T, seed uint64, n int) ([]byte, *EditGen) {
	t.Helper()
	d, store := liveTestDoc(t)
	g, err := NewEditGen(seed, d, store)
	if err != nil {
		t.Fatal(err)
	}
	var script bytes.Buffer
	for i := 0; i < n; i++ {
		op, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := op.Batch.Records()
		if err != nil {
			t.Fatal(err)
		}
		script.Write(core.EncodeChangeRecords(recs))
		if op.Block != nil {
			script.WriteString(op.Block.ID)
		}
		if err := g.Commit(op); err != nil {
			t.Fatalf("op %d (%c): %v", i, op.Kind, err)
		}
	}
	return script.Bytes(), g
}

func TestAuthorScriptDeterministic(t *testing.T) {
	const n = 5 * len(authorRound)
	a, _ := authorScript(t, 11, n)
	b, _ := authorScript(t, 11, n)
	c, _ := authorScript(t, 12, n)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different author scripts")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 11 and 12 gave the same author script")
	}
}

// The cycle keeps the document near its starting size, removes every arc
// it adds, and leaves a document that still schedules.
func TestAuthorCycleIsBalanced(t *testing.T) {
	d, _ := liveTestDoc(t)
	start := d.Stats().Nodes
	_, g := authorScript(t, 4, 7*len(authorRound))
	if got := g.Mirror().Stats().Nodes; got != start {
		t.Errorf("after whole rounds the document has %d nodes, started with %d", got, start)
	}
	if len(g.arcs) != 0 || len(g.inserted) != 0 {
		t.Errorf("round left %d arcs and %d inserted nodes behind", len(g.arcs), len(g.inserted))
	}
	if _, err := cmif.Schedule(g.Mirror(), cmif.WithRelaxation()); err != nil {
		t.Errorf("edited document no longer schedules: %v", err)
	}
	counts := map[opKind]int{}
	for _, k := range []byte(authorRound) {
		counts[opKind(k)]++
	}
	if len(authorRound) != 20 || counts[opBlock] != 1 || counts[opInsert]+counts[opBlock] != counts[opDelete] ||
		counts[opAddArc] != counts[opRemoveArc] {
		t.Errorf("op mix %v is not 5%% block puts with balanced inserts/deletes and arcs", counts)
	}
}
