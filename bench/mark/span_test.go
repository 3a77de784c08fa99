package mark

import "testing"

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Op: 7, Layer: "client", Name: "view", StartNS: 0, EndNS: 100},
		// Two overlapping children cover [10,60) once, not 30+40.
		{ID: 2, Parent: 1, Op: 7, Layer: "transport", Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Op: 7, Layer: "transport", Name: "b", StartNS: 20, EndNS: 60},
		// A grandchild takes from its parent only.
		{ID: 4, Parent: 3, Op: 7, Layer: "sched", Name: "c", StartNS: 30, EndNS: 50},
		// A child reaching past its parent is clipped to it: covers [90,100).
		{ID: 5, Parent: 1, Op: 7, Layer: "render", Name: "d", StartNS: 90, EndNS: 130},
		// A child wholly inside another child's interval adds nothing.
		{ID: 6, Parent: 1, Op: 7, Layer: "filter", Name: "e", StartNS: 25, EndNS: 35},
	}
	self := SelfTimes(spans)
	want := map[int32]int64{
		1: 100 - 50 - 10, // [10,60) and [90,100) covered
		2: 30,
		3: 40 - 20,
		4: 20,
		5: 40,
		6: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestLayerTable(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Layer: "client", StartNS: 0, EndNS: 10e6},
		{ID: 2, Parent: 1, Op: 1, Layer: "sched", StartNS: 1e6, EndNS: 7e6},
		{ID: 3, Op: 2, Layer: "client", StartNS: 0, EndNS: 20e6},
		{ID: 4, Parent: 3, Op: 2, Layer: "sched", StartNS: 0, EndNS: 10e6},
		{ID: 5, Parent: 3, Op: 2, Layer: "filter", StartNS: 10e6, EndNS: 18e6},
	}
	rows, opSums := LayerTable(spans)
	if len(rows) != 3 || rows[0].Layer != "sched" || !near(rows[0].SelfMS, 16) ||
		!near(rows[0].Share, 16.0/30) || !near(rows[0].PerOpMS, 8) {
		t.Errorf("rows = %+v", rows)
	}
	// Children never leave their roots here, so per-op sums are the root
	// durations: the property the traced run's self-time check rests on.
	if len(opSums) != 2 || !near(opSums[0], 10) || !near(opSums[1], 20) {
		t.Errorf("op sums = %v", opSums)
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(42, 0, "client", "view")
	child := tr.Start(42, root, "sched", "sched.solve")
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 42 || spans[1].Layer != "sched" {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if spans[1].StartNS < spans[0].StartNS || spans[1].EndNS > spans[0].EndNS {
		t.Errorf("child not inside parent: %+v", spans)
	}
}
