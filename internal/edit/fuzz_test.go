package edit

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/units"
)

// FuzzApplyAtomic drives Apply with random batches of all seven ops over
// small documents of every corpus shape. With failAt ≥ 0, a record that
// must fail is spliced into the batch at a position drawn from it: the
// batch is refused naming that record, and the document — its bytes, its
// parent links, Generation() and ChangesSince — is as it was. Either way
// the valid batch then applies in place, byte-identical to applying it to
// a clone and to replaying it through the reporting ops, and a Solver
// that followed the document through it all matches a cold solve.
func FuzzApplyAtomic(f *testing.F) {
	for shape := range corpus.Shapes() {
		for seed := uint64(1); seed <= 3; seed++ {
			f.Add(uint8(shape), seed, seed*7919, uint8(4+seed), int8(-1))
			f.Add(uint8(shape), seed, seed*104729, uint8(6+seed), int8(seed))
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, docSeed, batchSeed uint64, n uint8, failAt int8) {
		shapes := corpus.Shapes()
		d, _, err := corpus.Generate(corpus.Spec{
			Shape: shapes[int(shape)%len(shapes)], Seed: docSeed, Size: 2, Languages: 1, Depth: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		orig := d.Clone()
		bopts := sched.Options{DefaultLeafDuration: 500 * time.Millisecond}
		solver, err := sched.NewSolver(d, bopts, sched.SolveOptions{Relax: true})
		if err != nil {
			solver = nil // the shape does not build; the edits are still checked
		} else {
			_, _ = solver.Schedule()
		}

		rng := rand.New(rand.NewSource(int64(batchSeed)))
		mirror := d.Clone()
		var recs []core.ChangeRecord
		for step := 0; step < int(n%12)+1; step++ {
			if rec, ok := randomRecord(rng, mirror, step); ok {
				recs = append(recs, rec)
			}
		}
		if len(recs) == 0 {
			return
		}

		if failAt >= 0 {
			k := int(failAt) % (len(recs) + 1)
			batch := slices.Concat(recs[:k], []core.ChangeRecord{failingRecord(rng)}, recs[k:])
			before, gen := docBinary(t, d), d.Generation()
			changes := slices.Clone(d.ChangesSince(0))
			err := Apply(d, batch)
			if err == nil {
				t.Fatalf("a batch with a failing record %d applied", k)
			}
			if want := fmt.Sprintf("record %d ", k); !strings.Contains(err.Error(), want) {
				t.Fatalf("the refusal %q does not name record %d", err, k)
			}
			if string(docBinary(t, d)) != string(before) {
				t.Fatalf("refused at record %d, the batch still changed the document", k)
			}
			if g := d.Generation(); g != gen {
				t.Fatalf("refused at record %d, the batch moved the generation %d -> %d", k, gen, g)
			}
			if !slices.Equal(d.ChangesSince(0), changes) {
				t.Fatalf("refused at record %d, the batch changed the change log", k)
			}
			checkLinks(t, d)
		}

		gen := d.Generation()
		if err := Apply(d, recs); err != nil {
			t.Fatalf("the valid batch failed: %v", err)
		}
		if g := d.Generation(); g != gen+uint64(len(recs)) {
			t.Fatalf("a batch of %d records moved the generation %d -> %d", len(recs), gen, g)
		}
		checkLinks(t, d)
		got := docBinary(t, d)
		if string(got) != string(docBinary(t, mirror)) {
			t.Fatal("the batch applied in place differs from applying its records one by one")
		}
		cloned := orig.Clone()
		if err := Apply(cloned, recs); err != nil {
			t.Fatalf("the batch failed on a clone: %v", err)
		}
		if string(got) != string(docBinary(t, cloned)) {
			t.Fatal("the batch applied in place differs from the batch applied to a clone")
		}
		reported := orig.Clone()
		for i, rec := range recs {
			if err := applyReporting(reported, rec); err != nil {
				t.Fatalf("record %d failed through the reporting ops: %v", i, err)
			}
		}
		if string(got) != string(docBinary(t, reported)) {
			t.Fatal("the batch applied in place differs from the reporting ops")
		}

		if solver == nil {
			return
		}
		sch, errGot := solver.Reschedule()
		cold, err := sched.Build(d, bopts)
		if err != nil {
			if errGot == nil {
				t.Fatalf("Reschedule succeeded where Build fails: %v", err)
			}
			return
		}
		want, errWant := cold.Solve(sched.SolveOptions{Relax: true})
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("Reschedule error %v, cold solve error %v", errGot, errWant)
		}
		if errWant != nil {
			return
		}
		d.Root.Walk(func(m *core.Node) bool {
			if sch.StartOf(m) != want.StartOf(m) || sch.EndOf(m) != want.EndOf(m) {
				t.Fatalf("%s: followed [%v, %v], cold [%v, %v]", m.PathString(),
					sch.StartOf(m), sch.EndOf(m), want.StartOf(m), want.EndOf(m))
			}
			return true
		})
	})
}

// randomRecord builds a record of a random op that applies to mirror and
// applies it there; ok is false when the drawn op does not apply.
func randomRecord(rng *rand.Rand, mirror *core.Document, step int) (core.ChangeRecord, bool) {
	var nodes, composites []*core.Node
	mirror.Root.Walk(func(m *core.Node) bool {
		nodes = append(nodes, m)
		if !m.Type.IsLeaf() {
			composites = append(composites, m)
		}
		return true
	})
	n, p := nodes[rng.Intn(len(nodes))], composites[rng.Intn(len(composites))]
	var rec core.ChangeRecord
	var err error
	switch rng.Intn(7) {
	case 0:
		rec, err = RecordSetAttr(n.PathString(), "duration", attr.Quantity(units.MS(int64(rng.Intn(900)))))
	case 1:
		a := core.SyncArc{
			Source: nodes[rng.Intn(len(nodes))].PathString(), SrcEnd: core.EndPoint(rng.Intn(2)),
			DestEnd: core.EndPoint(rng.Intn(2)), Offset: units.MS(int64(rng.Intn(600))),
			MaxDelay: units.InfiniteQuantity(), Strict: core.May,
		}
		rec, err = RecordAddArc(n.PathString(), a)
	case 2:
		arcs, _ := n.Arcs()
		if len(arcs) == 0 {
			return rec, false
		}
		rec = RecordRemoveArc(n.PathString(), rng.Intn(len(arcs)))
	case 3:
		name := fmt.Sprintf("f%d", step)
		leaf := core.NewImm([]byte(name)).SetName(name).
			SetAttr("duration", attr.Quantity(units.MS(int64(100+rng.Intn(400)))))
		rec, err = RecordInsert(p.PathString(), rng.Intn(p.NumChildren()+3)-1, leaf)
	case 4:
		rec = RecordDelete(n.PathString())
	case 5:
		rec = RecordMove(n.PathString(), p.PathString(), rng.Intn(p.NumChildren()+1))
	case 6:
		rec = RecordRename(n.PathString(), fmt.Sprintf("r%d", step))
	}
	if err != nil {
		panic(err) // the builders fail only on an unencodable value
	}
	return rec, Apply(mirror, []core.ChangeRecord{rec}) == nil
}

// failingRecord builds a record that fails whatever state the batch has
// reached: an unresolvable path, a refused attribute, a malformed
// payload, a structural rejection or an unknown op.
func failingRecord(rng *rand.Rand) core.ChangeRecord {
	switch rng.Intn(6) {
	case 0:
		return RecordDelete("/no-such-node/below")
	case 1:
		rec, err := RecordSetAttr("/", "name", attr.ID("renamed"))
		if err != nil {
			panic(err)
		}
		return rec
	case 2:
		return core.ChangeRecord{Op: core.OpInsert, Dest: "/", Payload: []byte{0xff, 0x01}}
	case 3:
		return RecordMove("/", "/", 0)
	case 4:
		return RecordRename("/", "")
	default:
		return core.ChangeRecord{Op: core.EditOp(0x7f), Path: "/"}
	}
}

// applyReporting re-executes one record through the reporting ops the
// facade exposes.
func applyReporting(d *core.Document, rec core.ChangeRecord) error {
	var err error
	switch rec.Op {
	case core.OpSetAttr:
		var v attr.Value
		if v, err = codec.DecodeBinaryValue(rec.Payload); err == nil {
			err = SetAttr(d, rec.Path, rec.Name, v)
		}
	case core.OpAddArc:
		var v attr.Value
		if v, err = codec.DecodeBinaryValue(rec.Payload); err == nil {
			var a core.SyncArc
			if a, err = core.ParseArc(v); err == nil {
				err = AddArc(d, rec.Path, a)
			}
		}
	case core.OpRemoveArc:
		err = RemoveArc(d, rec.Path, rec.Index)
	case core.OpInsert:
		var child *core.Node
		if child, err = codec.DecodeBinaryNode(rec.Payload); err == nil {
			_, err = InsertNode(d, rec.Dest, rec.Index, child)
		}
	case core.OpRemove:
		_, err = DeleteNode(d, rec.Path)
	case core.OpMove:
		_, err = MoveNode(d, rec.Path, rec.Dest, rec.Index)
	case core.OpRename:
		_, err = RenameNode(d, rec.Path, rec.Name)
	default:
		err = fmt.Errorf("unknown op %d", rec.Op)
	}
	return err
}

// docBinary is the encoding documents are compared by.
func docBinary(t *testing.T, d *core.Document) []byte {
	t.Helper()
	data, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkLinks verifies every node's parent and index agree with its
// position, which the encoding does not show.
func checkLinks(t *testing.T, d *core.Document) {
	t.Helper()
	d.Root.Walk(func(m *core.Node) bool {
		for i, c := range m.Children() {
			if c.Parent() != m || c.Index() != i {
				t.Fatalf("%s: child %d links to parent %p at index %d", m.PathString(), i, c.Parent(), c.Index())
			}
		}
		return true
	})
}
